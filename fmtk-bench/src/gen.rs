//! Seeded inputs. Everything a run feeds the program is a pure function
//! of the workload seed, so two runs with one seed replay identical
//! requests from an identical start state.

use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64: small, fast, and fixed here, so generated inputs do not
/// move when a dependency's generator changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws made
    /// from one seed (one stream per kind of input).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "empty range");
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// A finite structure with one binary relation, as the benchmark's
/// oracles see it: domain `0..n` and a tuple list in generation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub n: u32,
    /// Relation name in the structure file (`E` or `<`).
    pub rel: &'static str,
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// The structure in `fmt_structures::parse` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(12 * self.edges.len() + 16);
        let _ = writeln!(out, "size: {}", self.n);
        for &(u, v) in &self.edges {
            let _ = writeln!(out, "{}({u},{v})", self.rel);
        }
        out
    }

    /// Out-neighbour lists.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n as usize];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
        }
        adj
    }

    /// The same structure under the element renaming `i ↦ perm[i]`.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        Graph {
            n: self.n,
            rel: self.rel,
            edges: self
                .edges
                .iter()
                .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
                .collect(),
        }
    }
}

/// Maximum forward span of a DAG edge (materialize and churn).
pub const DAG_SPAN: u32 = 40;

/// A random forward DAG: every node `i` gets `out_degree` distinct
/// successors in `i+1 ..= i+DAG_SPAN` (fewer near the end).
pub fn forward_dag(rng: &mut Rng, n: u32, out_degree: u32) -> Graph {
    let mut edges = Vec::with_capacity((n * out_degree) as usize);
    for u in 0..n.saturating_sub(1) {
        let hi = (n - 1).min(u + DAG_SPAN);
        let want = out_degree.min(hi - u);
        let mut picked: Vec<u32> = Vec::with_capacity(want as usize);
        while picked.len() < want as usize {
            let v = rng.range(u + 1, hi);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        edges.extend(picked.into_iter().map(|v| (u, v)));
    }
    Graph { n, rel: "E", edges }
}

/// The path `0 → 1 → … → n−1` plus `n/8` distinct forward shortcuts of
/// length 2..=8. Every node reaches exactly the nodes after it, so the
/// demand cone of `tc(c, y)?` is `n − 1 − c` nodes.
pub fn shortcut_chain(rng: &mut Rng, n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let mut seen: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut added = 0;
    while added < n / 8 {
        let u = rng.below(n - 2);
        let v = (n - 1).min(u + rng.range(2, 8));
        if seen.insert((u, v)) {
            edges.push((u, v));
            added += 1;
        }
    }
    Graph { n, rel: "E", edges }
}

/// The linear order `L_m`: `<` as `{(i, j) | i < j}`. The elements keep
/// their natural names: the EF solver's work depends on element order,
/// so renaming them per seed would move the cost of every game.
pub fn linear_order(m: u32) -> Graph {
    let edges = (0..m)
        .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
        .collect();
    Graph {
        n: m,
        rel: "<",
        edges,
    }
}

/// Largest degree the census generator allows. Radius-1 balls then hold
/// at most `1 + MAX_DEGREE` elements, which keeps the census clear of
/// `canonical_key`'s factorial worst case (see the README).
pub const MAX_DEGREE: u32 = 3;

/// A random undirected graph of max degree [`MAX_DEGREE`] with about
/// `1.3 n` edges, stored symmetrically (both directions of each edge).
pub fn bounded_degree_graph(rng: &mut Rng, n: u32) -> Graph {
    let target = n * 13 / 10;
    let mut deg = vec![0u32; n as usize];
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut edges = Vec::new();
    let mut tries = 0;
    while seen.len() < target as usize && tries < 50 * n {
        tries += 1;
        let (a, b) = (rng.below(n), rng.below(n));
        let key = (a.min(b), a.max(b));
        if a == b || deg[a as usize] >= MAX_DEGREE || deg[b as usize] >= MAX_DEGREE {
            continue;
        }
        if seen.insert(key) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
            edges.push((a, b));
            edges.push((b, a));
        }
    }
    Graph { n, rel: "E", edges }
}

/// Left-recursive transitive closure: the batch workload's program.
pub const TC_LEFT: &str = "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z).\n";
/// Right-recursive transitive closure: the magic-sets case.
pub const TC_RIGHT: &str = "tc(x, y) :- E(x, y).\ntc(x, y) :- E(x, z), tc(z, y).\n";

/// Extension-axiom sentences over `E/2` with μ values derived by hand
/// for the random-structure model of `fmt-zeroone`, in which every
/// tuple of `E` (loops included) is an independent fair coin:
/// an extension axiom, or a sentence true whenever one holds, has
/// μ = 1; its negation, or a sentence whose failure one implies, has
/// μ = 0.
pub const MU_SENTENCES: [(&str, bool); 8] = [
    // Extension axiom: every two elements have a common successor.
    ("forall x y. exists z. E(x, z) & E(y, z)", true),
    // Extension axiom: every element has a non-mutual successor.
    ("forall x. exists y. E(x, y) & !E(y, x)", true),
    // Extension axiom for pairs with a common non-successor.
    ("forall x y. exists z. !E(x, z) & !E(y, z)", true),
    // Some loop exists: each of n coins E(x, x) may land.
    ("exists x. E(x, x)", true),
    // All loops present: all n coins must land.
    ("forall x. E(x, x)", false),
    // A vertex adjacent to everything fails the extension axiom
    // "some z is not a successor of x".
    ("exists x. forall y. E(x, y)", false),
    // Negation of the first axiom.
    ("exists x y. forall z. !E(x, z) | !E(y, z)", false),
    // A vertex with no successor fails "every x has a successor".
    ("exists x. forall y. !E(x, y)", false),
];

/// The workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Materialize,
    PointQueries,
    Churn,
    PaperTools,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Materialize,
        Workload::PointQueries,
        Workload::Churn,
        Workload::PaperTools,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Materialize => "materialize",
            Workload::PointQueries => "point_queries",
            Workload::Churn => "churn",
            Workload::PaperTools => "paper_tools",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the program is asked to use.
    pub fn threads(self) -> usize {
        match self {
            Workload::Materialize => 2,
            _ => 1,
        }
    }
}

/// Materialize: DAGs per seed, nodes and out-degree of each.
pub const MAT_GRAPHS: usize = 16;
pub const MAT_NODES: u32 = 400;
pub const DAG_OUT_DEGREE: u32 = 2;
/// Point queries: chain length and number of goals per seed.
pub const CHAIN_NODES: u32 = 2048;
pub const POINT_GOALS: u32 = 32;
pub const CONE_MIN: u32 = 64;
pub const CONE_MAX: u32 = 160;
/// Paper tools: order sizes, game rounds, census graphs and their size.
pub const ORDER_SIZES: std::ops::RangeInclusive<u32> = 7..=10;
pub const GAME_ROUNDS: u32 = 3;
pub const CENSUS_GRAPHS: usize = 24;
pub const CENSUS_NODES: u32 = 1000;
pub const CENSUS_RADIUS: u32 = 1;

/// What one request asks, and what its oracle needs to know.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Task {
    /// Full tc of DAG number `graph` (`Plan::graphs`).
    Materialize { graph: usize },
    /// Answers of `tc(source, y)?` on the chain (`Plan::graphs[0]`).
    PointQuery { source: u32 },
    /// EF game on `L_m` vs `L_k` (`Plan::graphs[m - 7]`, `[k - 7]`).
    Game { m: u32, k: u32 },
    /// Radius-1 census of graph number `graph`.
    Census { graph: usize },
    /// μ of `MU_SENTENCES[sentence]`.
    Mu { sentence: usize },
}

/// One request: the `fmtk` arguments and the task they encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub args: Vec<String>,
    pub task: Task,
}

/// The generated inputs of a CLI workload: files to write, the graphs
/// behind them (for the oracles and the in-process mirror), and the
/// request cycle the closed loop replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    pub graphs: Vec<Graph>,
    /// `(file name, contents)`, written into the run's work directory.
    pub files: Vec<(String, String)>,
    pub cycle: Vec<Request>,
}

fn graph_file(prefix: &str, i: usize) -> String {
    format!("{prefix}{i:02}.txt")
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

/// The inputs of a CLI workload (every workload but churn).
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed, workload as u64);
    let threads = workload.threads().to_string();
    let mut graphs = Vec::new();
    let mut files = Vec::new();
    let mut cycle = Vec::new();
    match workload {
        Workload::Materialize => {
            files.push(("tc.dl".to_owned(), TC_LEFT.to_owned()));
            for i in 0..MAT_GRAPHS {
                let g = forward_dag(&mut rng, MAT_NODES, DAG_OUT_DEGREE);
                let f = graph_file("dag", i);
                files.push((f.clone(), g.to_text()));
                graphs.push(g);
                cycle.push(Request {
                    args: args(&["datalog", &f, "tc.dl", "--threads", &threads]),
                    task: Task::Materialize { graph: i },
                });
            }
        }
        Workload::PointQueries => {
            let g = shortcut_chain(&mut rng, CHAIN_NODES);
            files.push(("tc.dl".to_owned(), TC_RIGHT.to_owned()));
            files.push(("chain.txt".to_owned(), g.to_text()));
            // Stratified cone sizes: goal i gets a cone from the i-th
            // slice of CONE_MIN..=CONE_MAX, so every seed has the same
            // spread of request costs. The first goal, the run's set-up
            // request, has the middle cone whatever the seed.
            let slice = (CONE_MAX - CONE_MIN) / POINT_GOALS;
            let mut cones: Vec<u32> = (1..POINT_GOALS)
                .map(|i| CONE_MIN + i * slice + rng.below(slice))
                .collect();
            rng.shuffle(&mut cones);
            cones.insert(0, (CONE_MIN + CONE_MAX) / 2);
            for cone in cones {
                let source = g.n - 1 - cone;
                let goal = format!("tc({source}, y)?");
                cycle.push(Request {
                    args: args(&[
                        "datalog",
                        "chain.txt",
                        "tc.dl",
                        "--threads",
                        &threads,
                        "--query",
                        &goal,
                    ]),
                    task: Task::PointQuery { source },
                });
            }
            graphs.push(g);
        }
        Workload::PaperTools => {
            for m in ORDER_SIZES {
                let g = linear_order(m);
                files.push((format!("order{m}.txt"), g.to_text()));
                graphs.push(g);
            }
            let mut games: Vec<(u32, u32)> = ORDER_SIZES
                .flat_map(|m| ORDER_SIZES.map(move |k| (m, k)))
                .collect();
            rng.shuffle(&mut games);
            let mut census = Vec::new();
            for i in 0..CENSUS_GRAPHS {
                let g = bounded_degree_graph(&mut rng, CENSUS_NODES);
                let f = graph_file("census", i);
                files.push((f.clone(), g.to_text()));
                census.push(Request {
                    args: args(&["census", &f, "--radius", &CENSUS_RADIUS.to_string()]),
                    task: Task::Census {
                        graph: graphs.len(),
                    },
                });
                graphs.push(g);
            }
            let mut mus: Vec<usize> = (0..MU_SENTENCES.len()).collect();
            rng.shuffle(&mut mus);
            // A fixed cycle of blocks census, game, census, μ, census,
            // one block per game: the first request is always a census
            // (so set-up time does not hinge on which game the seed puts
            // first), and μ is one in five. Censuses are three in five
            // and cost much the same on every graph, so p50 and p90 both
            // land among them; the games' costs spread from 2 to 28 ms
            // over the 16 pairs, and a quantile that fell among them
            // would sit on a gap between two pairs.
            for (block, &(m, k)) in games.iter().enumerate() {
                let census_at = |j: usize| census[(3 * block + j) % CENSUS_GRAPHS].clone();
                let mu = mus[block % mus.len()];
                cycle.push(census_at(0));
                cycle.push(Request {
                    args: args(&[
                        "game",
                        &format!("order{m}.txt"),
                        &format!("order{k}.txt"),
                        "--rounds",
                        &GAME_ROUNDS.to_string(),
                    ]),
                    task: Task::Game { m, k },
                });
                cycle.push(census_at(1));
                cycle.push(Request {
                    args: args(&["mu", MU_SENTENCES[mu].0]),
                    task: Task::Mu { sentence: mu },
                });
                cycle.push(census_at(2));
            }
        }
        Workload::Churn => panic!("churn runs in-process and has no CLI plan"),
    }
    Plan {
        workload,
        graphs,
        files,
        cycle,
    }
}

/// Churn: nodes of the DAG, edges swapped and lookups per request.
pub const CHURN_NODES: u32 = 300;
pub const CHURN_SWAPS: usize = 2;
pub const CHURN_LOOKUPS: usize = 8;
/// Churn rewires edges stratum by stratum: the edge list, which is
/// ordered by source, is cut into this many strata, and swap `k` of the
/// stream rewires an edge of stratum `k · CHURN_STRIDE mod CHURN_STRATA`.
/// A swap's cost grows with how many nodes reach its source and how many
/// its target reaches, so a fixed cycle over the sources makes every
/// seed's requests cost alike.
const CHURN_STRATA: usize = 64;
/// Coprime to [`CHURN_STRATA`], so each run of `CHURN_STRATA` swaps
/// visits every stratum once; consecutive swaps fall 27 strata apart.
const CHURN_STRIDE: usize = 37;

/// One churn request: retract existing edges, insert new forward edges,
/// poll, then look up reachability pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    pub retract: [(u32, u32); CHURN_SWAPS],
    pub insert: [(u32, u32); CHURN_SWAPS],
    pub lookups: [(u32, u32); CHURN_LOOKUPS],
}

/// The churn update stream. It keeps its own model of the edge set, so
/// it only retracts edges that exist and inserts edges that do not; the
/// edge count and every out-degree stay fixed.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: Rng,
    n: u32,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    /// Swaps made so far.
    swaps: usize,
}

impl ChurnStream {
    /// The initial DAG number `graph` of the churn workload and the
    /// stream over it.
    pub fn new(seed: u64, graph: usize) -> (Graph, ChurnStream) {
        let mut rng = Rng::new(seed, Workload::Churn as u64 + 16 * graph as u64);
        let g = forward_dag(&mut rng, CHURN_NODES, DAG_OUT_DEGREE);
        let stream = ChurnStream {
            rng,
            n: g.n,
            present: g.edges.iter().copied().collect(),
            edges: g.edges.clone(),
            swaps: 0,
        };
        (g, stream)
    }

    /// The next request; the model moves past it.
    pub fn next_update(&mut self) -> Update {
        let mut retract = [(0, 0); CHURN_SWAPS];
        let mut insert = [(0, 0); CHURN_SWAPS];
        for j in 0..CHURN_SWAPS {
            // Rewire a random edge (u, v) of the swap's stratum to a new
            // target w of u: every node keeps its out-degree, so the
            // graph stays in the forward-DAG family it started in. The
            // two swaps of a request draw from strata 27 apart, so they
            // rewire edges of different sources, the request's tuples
            // are distinct, and the order they are applied in does not
            // matter.
            let stratum = (self.swaps * CHURN_STRIDE) % CHURN_STRATA;
            let from = stratum * self.edges.len() / CHURN_STRATA;
            let to = (stratum + 1) * self.edges.len() / CHURN_STRATA;
            self.swaps += 1;
            loop {
                let i = from + self.rng.below((to - from) as u32) as usize;
                let (u, v) = self.edges[i];
                let hi = (self.n - 1).min(u + DAG_SPAN);
                let free: Vec<u32> = (u + 1..=hi)
                    .filter(|&w| !self.present.contains(&(u, w)))
                    .collect();
                if free.is_empty() {
                    continue;
                }
                let w = free[self.rng.below(free.len() as u32) as usize];
                self.present.remove(&(u, v));
                self.present.insert((u, w));
                self.edges[i] = (u, w);
                retract[j] = (u, v);
                insert[j] = (u, w);
                break;
            }
        }
        let mut lookups = [(0, 0); CHURN_LOOKUPS];
        for l in &mut lookups {
            let u = self.rng.below(self.n - 1);
            *l = (u, self.rng.range(u + 1, self.n - 1));
        }
        Update {
            retract,
            insert,
            lookups,
        }
    }
}
