//! Output oracles, written here from the definitions and never by
//! calling the engine under test, plus parsers for `fmtk`'s output.

use crate::gen::Graph;
use std::collections::BTreeMap;

/// Nodes reachable from `src` by a path of one or more edges, sorted.
pub fn reach_from(adj: &[Vec<u32>], src: u32) -> Vec<u32> {
    let mut seen = vec![false; adj.len()];
    let mut stack: Vec<u32> = adj[src as usize].clone();
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        if !std::mem::replace(&mut seen[v as usize], true) {
            out.push(v);
            stack.extend_from_slice(&adj[v as usize]);
        }
    }
    out.sort_unstable();
    out
}

/// The transitive closure of the graph with out-neighbour lists `adj`,
/// by one search per node, sorted.
pub fn closure(adj: &[Vec<u32>]) -> Vec<(u32, u32)> {
    (0..adj.len() as u32)
        .flat_map(|u| reach_from(adj, u).into_iter().map(move |v| (u, v)))
        .collect()
}

/// Theorem 3.1 for linear orders: `L_m ≡_r L_k` iff `m = k` or both
/// have at least `2^r − 1` elements.
pub fn orders_equivalent(m: u32, k: u32, rounds: u32) -> bool {
    let need = (1u64 << rounds) - 1;
    m == k || (u64::from(m) >= need && u64::from(k) >= need)
}

/// What `fmtk game` must report on `L_m` vs `L_k`: the rank capped at
/// `cap`, and whether the duplicator survives the `rank + 1`-round game
/// the optimal trace plays.
pub fn game_expect(m: u32, k: u32, cap: u32) -> (u32, bool) {
    let rank = (0..=cap)
        .take_while(|&r| orders_equivalent(m, k, r))
        .last()
        .unwrap_or(0);
    (rank, orders_equivalent(m, k, rank + 1))
}

/// Per ball size, how many elements of `g` have a radius-`r` ball of
/// that size in the Gaifman graph (for a binary relation: the graph
/// with the edges taken in both directions).
pub fn ball_size_histogram(g: &Graph, r: u32) -> BTreeMap<usize, usize> {
    let mut nb = vec![Vec::new(); g.n as usize];
    for &(u, v) in &g.edges {
        if u != v {
            nb[u as usize].push(v);
            nb[v as usize].push(u);
        }
    }
    for l in &mut nb {
        l.sort_unstable();
        l.dedup();
    }
    let mut hist = BTreeMap::new();
    let mut dist = vec![u32::MAX; g.n as usize];
    for c in 0..g.n {
        let mut ball = vec![c];
        dist[c as usize] = 0;
        let mut i = 0;
        while i < ball.len() {
            let u = ball[i];
            i += 1;
            if dist[u as usize] < r {
                for &v in &nb[u as usize] {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = dist[u as usize] + 1;
                        ball.push(v);
                    }
                }
            }
        }
        for &u in &ball {
            dist[u as usize] = u32::MAX;
        }
        *hist.entry(ball.len()).or_insert(0) += 1;
    }
    hist
}

/// A census as the oracles compare it: the element count and, per
/// type, `(count, ball size)`, sorted (type ids are intern order and
/// carry no meaning across structures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    pub elements: usize,
    pub rows: Vec<(usize, usize)>,
}

/// The census checks that need no second run: the counts sum to `n`,
/// and per ball size they match the independently computed balls.
pub fn census_consistent(g: &Graph, radius: u32, c: &Census) -> bool {
    let mut by_size: BTreeMap<usize, usize> = BTreeMap::new();
    for &(count, size) in &c.rows {
        *by_size.entry(size).or_insert(0) += count;
    }
    c.elements == g.n as usize
        && c.rows.iter().map(|r| r.0).sum::<usize>() == g.n as usize
        && by_size == ball_size_histogram(g, radius)
}

/// Rows `pred(a, b)` of every `pred/2` listing in `fmtk datalog` output,
/// sorted, or `None` if a listing's header count disagrees with its
/// rows.
pub fn parse_listing(out: &str, pred: &str) -> Option<Vec<(u32, u32)>> {
    let header = format!("{pred}/2: ");
    let row = format!("  {pred}(");
    let mut rows = Vec::new();
    let mut lines = out.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix(&header) else {
            continue;
        };
        let count: usize = rest.strip_suffix(" tuples")?.parse().ok()?;
        let start = rows.len();
        while let Some(r) = lines.peek().and_then(|l| l.strip_prefix(&row)) {
            rows.push(parse_pair(r.strip_suffix(')')?)?);
            lines.next();
        }
        if rows.len() - start != count {
            return None;
        }
    }
    rows.sort_unstable();
    Some(rows)
}

fn parse_pair(s: &str) -> Option<(u32, u32)> {
    let (a, b) = s.split_once(", ")?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// Answer rows of `fmtk datalog --query` output, sorted.
pub fn parse_answers(out: &str) -> Option<Vec<(u32, u32)>> {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("query "));
    let head = lines.next()?;
    let count: usize = head
        .rsplit_once(": ")?
        .1
        .strip_suffix(" answers")?
        .parse()
        .ok()?;
    let mut rows = lines
        .map(|l| parse_pair(l.strip_prefix("  tc(")?.strip_suffix(')')?))
        .collect::<Option<Vec<_>>>()?;
    rows.sort_unstable();
    (rows.len() == count).then_some(rows)
}

/// `(rank, duplicator survives)` from `fmtk game` output.
pub fn parse_game(out: &str) -> Option<(u32, bool)> {
    let mut lines = out.lines();
    let rank = lines
        .next()?
        .split_once(": ")?
        .1
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let survived = lines.next()?.contains("(duplicator survives)");
    Some((rank, survived))
}

/// The census table of `fmtk census` output.
pub fn parse_census(out: &str) -> Option<Census> {
    let mut lines = out.lines();
    let head = lines.next()?;
    let (types, rest) = head.split_once(" radius-")?;
    let types: usize = types.parse().ok()?;
    let elements = rest
        .rsplit_once(" over ")?
        .1
        .strip_suffix(" elements")?
        .parse()
        .ok()?;
    lines.next()?;
    let mut rows = lines
        .map(|l| {
            let mut w = l.split_whitespace();
            Some((w.next()?.parse().ok()?, w.next()?.parse().ok()?))
        })
        .collect::<Option<Vec<(usize, usize)>>>()?;
    rows.sort_unstable();
    (rows.len() == types).then_some(Census { elements, rows })
}

/// The μ value printed by `fmtk mu`.
pub fn parse_mu(out: &str) -> Option<bool> {
    match out.trim() {
        "mu = 1" => Some(true),
        "mu = 0" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: u32, edges: &[(u32, u32)]) -> Graph {
        Graph {
            n,
            rel: "E",
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn closure_of_a_path_is_every_forward_pair() {
        let c = closure(&g(4, &[(0, 1), (1, 2), (2, 3)]).adjacency());
        assert_eq!(c, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn closure_includes_loops_only_on_cycles() {
        let c = closure(&g(3, &[(0, 1), (1, 0), (1, 2)]).adjacency());
        assert_eq!(c, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn theorem_3_1_closed_form() {
        // L_7 ≡_3 L_10 (both ≥ 7) but not ≡_4 (both would need ≥ 15).
        assert_eq!(game_expect(7, 10, 3), (3, false));
        assert_eq!(game_expect(9, 9, 3), (3, true));
        // L_2 vs L_3: equivalent for 1 round only.
        assert_eq!(game_expect(2, 3, 3), (1, false));
        assert_eq!(game_expect(0, 1, 3), (0, false));
    }

    #[test]
    fn ball_sizes_of_a_star() {
        let star = g(4, &[(0, 1), (0, 2), (0, 3)]);
        let h = ball_size_histogram(&star, 1);
        assert_eq!(h.into_iter().collect::<Vec<_>>(), vec![(2, 3), (4, 1)]);
        let h2 = ball_size_histogram(&star, 2);
        assert_eq!(h2.into_iter().collect::<Vec<_>>(), vec![(4, 4)]);
    }

    #[test]
    fn parsers_read_fmtk_output() {
        let dl = "tc/2: 2 tuples\n  tc(0, 1)\n  tc(0, 2)\n(2 iterations, 3 derivations)";
        assert_eq!(parse_listing(dl, "tc"), Some(vec![(0, 1), (0, 2)]));
        assert_eq!(parse_listing("tc/2: 3 tuples\n  tc(0, 1)", "tc"), None);
        let q = "tc_bf/2: 1 tuples\n  tc_bf(5, 6)\n(1 iterations, 1 derivations)\n\
                 query tc(5, y)?: 1 answers\n  tc(5, 6)";
        assert_eq!(parse_answers(q), Some(vec![(5, 6)]));
        let game = "rank(A, B) capped at 3: 3 — duplicator wins the 3-round game\n\
                    optimal 4-round game (spoiler wins):\n  round 1: …";
        assert_eq!(parse_game(game), Some((3, false)));
        let census = "2 radius-1 neighborhood types over 3 elements\n\
                      count  ball-size  type-id\n2      2          0\n1      3          1";
        assert_eq!(
            parse_census(census),
            Some(Census {
                elements: 3,
                rows: vec![(1, 3), (2, 2)]
            })
        );
        assert_eq!(parse_mu("mu = 1"), Some(true));
    }

    #[test]
    fn census_check_rejects_a_wrong_table() {
        let path = g(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let good = Census {
            elements: 3,
            rows: vec![(1, 3), (2, 2)],
        };
        assert!(census_consistent(&path, 1, &good));
        let bad = Census {
            elements: 3,
            rows: vec![(3, 2)],
        };
        assert!(!census_consistent(&path, 1, &bad));
    }
}
