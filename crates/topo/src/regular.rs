//! Regular baseline topologies: crossbar, 2-D mesh, 2-D torus, and
//! fully-connected networks, each paired with its deterministic route table,
//! plus [`grid_dims`], the mesh/torus shape for a processor count.
//!
//! These are the comparison points of the paper's evaluation (Section 4):
//! the non-blocking crossbar is the performance ideal, the mesh (with
//! dimension-order routing) and torus are the resource baselines.

use nocsyn_model::{Flow, ProcId};

use crate::{Channel, LinkId, Network, Route, RouteTable, SwitchId, TopoError};

/// Builds the "mega-switch": a single crossbar switch with every processor
/// attached. Non-blocking by construction — its conflict set contains only
/// injection/ejection sharing, which no topology can avoid.
///
/// Returns the network and the all-pairs route table.
///
/// # Errors
///
/// [`TopoError::DegenerateShape`] if `n_procs == 0`.
pub fn crossbar(n_procs: usize) -> Result<(Network, RouteTable), TopoError> {
    if n_procs == 0 {
        return Err(TopoError::DegenerateShape {
            what: "crossbar with zero processors",
        });
    }
    let mut net = Network::new(n_procs);
    let hub = net.add_switch();
    for p in 0..n_procs {
        net.attach(ProcId(p), hub)?;
    }
    let routes = all_pairs_routes(&net, |_, _| Vec::new())?;
    Ok((net, routes))
}

/// Builds a fully-connected switched network: one switch per processor and
/// a dedicated link between every switch pair. Routes are always the single
/// direct hop.
///
/// # Errors
///
/// [`TopoError::DegenerateShape`] if `n_procs == 0`.
#[allow(clippy::needless_range_loop)] // index symmetry with the pair table
pub fn fully_connected(n_procs: usize) -> Result<(Network, RouteTable), TopoError> {
    if n_procs == 0 {
        return Err(TopoError::DegenerateShape {
            what: "fully-connected with zero processors",
        });
    }
    let mut net = Network::new(n_procs);
    let switches: Vec<SwitchId> = (0..n_procs).map(|_| net.add_switch()).collect();
    let mut pair_link = vec![vec![None; n_procs]; n_procs];
    for i in 0..n_procs {
        for j in i + 1..n_procs {
            let l = net.add_link(switches[i], switches[j])?;
            pair_link[i][j] = Some(l);
        }
    }
    for p in 0..n_procs {
        net.attach(ProcId(p), switches[p])?;
    }
    let routes = all_pairs_routes(&net, |s, d| {
        let (i, j) = (s.index(), d.index());
        if i < j {
            vec![Channel::forward(pair_link[i][j].expect("all pairs linked"))]
        } else {
            vec![Channel::backward(
                pair_link[j][i].expect("all pairs linked"),
            )]
        }
    })?;
    Ok((net, routes))
}

/// The mesh/torus grid shape used for `n` processors: the most square
/// factorization (2x4 for 8, 3x3 for 9, 4x4 for 16).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn grid_dims(n: usize) -> (usize, usize) {
    assert!(n > 0, "grid for zero processors");
    let mut r = (n as f64).sqrt().floor() as usize;
    while r > 1 && !n.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), n / r.max(1))
}

/// A 2-D mesh of processor tiles with dimension-order (X-then-Y) routing.
///
/// Tile `(r, c)` hosts processor `r * cols + c` on its own switch; switches
/// are joined to their east and south neighbors. This is the paper's
/// RAW-style baseline.
///
/// # Errors
///
/// [`TopoError::DegenerateShape`] if either dimension is zero.
pub fn mesh(rows: usize, cols: usize) -> Result<(Network, RouteTable), TopoError> {
    let (net, xy, _) = grid(rows, cols, false)?;
    Ok((net, xy))
}

/// A 2-D torus: a mesh plus wrap-around links in both dimensions, routed
/// dimension-order along the shorter way around each ring (ties broken
/// toward increasing coordinates).
///
/// Wrap-around links only exist where they are distinct from mesh links
/// (i.e. for dimensions of length ≥ 3), matching the physical layout the
/// paper charges double link area for.
///
/// # Errors
///
/// [`TopoError::DegenerateShape`] if either dimension is zero.
pub fn torus(rows: usize, cols: usize) -> Result<(Network, RouteTable), TopoError> {
    let (net, xy, _) = grid(rows, cols, true)?;
    Ok((net, xy))
}

/// A 2-D torus together with *both* dimension orders of minimal routing:
/// the X-then-Y table and the Y-then-X table over the same network.
///
/// The pair feeds the simulator's approximation of the paper's "true fully
/// adaptive routing" on the torus: at injection, a packet picks whichever
/// minimal route is currently less congested.
///
/// # Errors
///
/// [`TopoError::DegenerateShape`] if either dimension is zero.
pub fn torus_with_alternates(
    rows: usize,
    cols: usize,
) -> Result<(Network, RouteTable, RouteTable), TopoError> {
    grid(rows, cols, true)
}

/// Shared mesh/torus builder; returns the X-then-Y and Y-then-X route
/// tables.
fn grid(
    rows: usize,
    cols: usize,
    wrap: bool,
) -> Result<(Network, RouteTable, RouteTable), TopoError> {
    if rows == 0 || cols == 0 {
        return Err(TopoError::DegenerateShape {
            what: "grid with a zero dimension",
        });
    }
    let n = rows * cols;
    let mut net = Network::new(n);
    let switch = |r: usize, c: usize| SwitchId(r * cols + c);
    for _ in 0..n {
        net.add_switch();
    }

    // h_links[r][c]: eastward link from (r, c) to (r, c+1); the wrap link
    // from the last column back to column 0 is stored at c = cols-1.
    let mut h_links = vec![vec![None; cols]; rows];
    let mut v_links = vec![vec![None; cols]; rows];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                h_links[r][c] = Some(net.add_link(switch(r, c), switch(r, c + 1))?);
            } else if wrap && cols >= 3 {
                h_links[r][c] = Some(net.add_link(switch(r, c), switch(r, 0))?);
            }
            if r + 1 < rows {
                v_links[r][c] = Some(net.add_link(switch(r, c), switch(r + 1, c))?);
            } else if wrap && rows >= 3 {
                v_links[r][c] = Some(net.add_link(switch(r, c), switch(0, c))?);
            }
        }
    }
    for p in 0..n {
        net.attach(ProcId(p), SwitchId(p))?;
    }

    // Step one hop in a ring dimension; returns the channel and the new
    // coordinate. `forward` moves toward increasing coordinate.
    let ring_step = |coord: usize, len: usize, forward: bool, links: &dyn Fn(usize) -> LinkId| {
        if forward {
            let ch = Channel::forward(links(coord));
            ((coord + 1) % len, ch)
        } else {
            let prev = (coord + len - 1) % len;
            let ch = Channel::backward(links(prev));
            (prev, ch)
        }
    };

    let dor_hops = |s: SwitchId, d: SwitchId, y_first: bool| {
        let (mut r, mut c) = (s.index() / cols, s.index() % cols);
        let (dr, dc) = (d.index() / cols, d.index() % cols);
        let mut hops = Vec::new();
        let step_x = |r: usize, c: &mut usize, hops: &mut Vec<Channel>| {
            while *c != dc {
                let forward = ring_direction(*c, dc, cols, wrap);
                let (nc, ch) = ring_step(*c, cols, forward, &|cc| {
                    h_links[r][cc].expect("x-step link exists")
                });
                hops.push(ch);
                *c = nc;
            }
        };
        let step_y = |c: usize, r: &mut usize, hops: &mut Vec<Channel>| {
            while *r != dr {
                let forward = ring_direction(*r, dr, rows, wrap);
                let (nr, ch) = ring_step(*r, rows, forward, &|rr| {
                    v_links[rr][c].expect("y-step link exists")
                });
                hops.push(ch);
                *r = nr;
            }
        };
        if y_first {
            step_y(c, &mut r, &mut hops);
            step_x(r, &mut c, &mut hops);
        } else {
            step_x(r, &mut c, &mut hops);
            step_y(c, &mut r, &mut hops);
        }
        hops
    };
    let xy = all_pairs_routes(&net, |s, d| dor_hops(s, d, false))?;
    let yx = all_pairs_routes(&net, |s, d| dor_hops(s, d, true))?;
    Ok((net, xy, yx))
}

/// Whether to move toward increasing coordinates from `from` to `to` in a
/// ring of length `len`. Without wrap the answer is simply `to > from`;
/// with wrap we take the shorter way, ties toward increasing.
fn ring_direction(from: usize, to: usize, len: usize, wrap: bool) -> bool {
    if !wrap || len < 3 {
        return to > from;
    }
    let ahead = (to + len - from) % len; // hops going forward
    ahead <= len - ahead
}

/// Builds routes for every ordered processor pair: injection channel, the
/// switch-level hops supplied by `mid` (from source switch to destination
/// switch), then the ejection channel.
fn all_pairs_routes<F>(net: &Network, mut mid: F) -> Result<RouteTable, TopoError>
where
    F: FnMut(SwitchId, SwitchId) -> Vec<Channel>,
{
    let mut table = RouteTable::new();
    for s in 0..net.n_procs() {
        for d in 0..net.n_procs() {
            if s == d {
                continue;
            }
            let flow = Flow::from_indices(s, d);
            let mut hops = vec![net.injection_channel(flow.src)?];
            hops.extend(mid(net.switch_of(flow.src)?, net.switch_of(flow.dst)?));
            hops.push(net.ejection_channel(flow.dst)?);
            let route = Route::new(hops);
            route.validate(net, flow)?;
            table.insert(flow, route);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictSet;

    #[test]
    fn crossbar_shape() {
        let (net, routes) = crossbar(8).unwrap();
        assert_eq!(net.n_switches(), 1);
        assert_eq!(net.n_network_links(), 0);
        assert_eq!(net.degree(SwitchId(0)), 8);
        assert_eq!(routes.len(), 8 * 7);
        assert!(routes.iter().all(|(_, r)| r.len() == 2));
        routes.validate(&net).unwrap();
        // The only conflicts on a crossbar are unavoidable endpoint-link
        // sharing: pairs with a common source or destination.
        let r = ConflictSet::from_routes(&routes);
        for p in r.iter() {
            let (a, b) = (p.first(), p.second());
            assert!(
                a.src == b.src || a.dst == b.dst,
                "unexpected conflict {a} vs {b}"
            );
        }
        assert!(!r.conflicts(Flow::from_indices(0, 1), Flow::from_indices(2, 3)));
    }

    #[test]
    fn degenerate_shapes_error() {
        assert!(crossbar(0).is_err());
        assert!(fully_connected(0).is_err());
        assert!(mesh(0, 4).is_err());
        assert!(torus(4, 0).is_err());
    }

    #[test]
    fn mesh_shape_and_routes() {
        let (net, routes) = mesh(4, 4).unwrap();
        assert_eq!(net.n_switches(), 16);
        // rows·(cols−1) + cols·(rows−1)
        assert_eq!(net.n_network_links(), 24);
        assert_eq!(net.max_degree(), 5); // interior: 4 neighbors + 1 proc
        assert!(net.is_strongly_connected());
        routes.validate(&net).unwrap();
        // DOR: 0 -> 5 goes east then south = 2 switch hops.
        assert_eq!(routes.route(Flow::from_indices(0, 5)).unwrap().len(), 4);
    }

    #[test]
    fn mesh_dor_is_x_then_y() {
        let (net, routes) = mesh(3, 3).unwrap();
        // 0 (0,0) -> 8 (2,2): x hops first. After injection, the first two
        // channels are horizontal links in row 0.
        let route = routes.route(Flow::from_indices(0, 8)).unwrap();
        assert_eq!(route.len(), 6);
        // Verify the intermediate switches: 0 -> 1 -> 2 -> 5 -> 8.
        let mut at = net.switch_of(ProcId(0)).unwrap();
        let mut path = vec![at];
        for &ch in &route.hops()[1..route.len() - 1] {
            let (_, head) = net.channel_endpoints(ch).unwrap();
            at = head.as_switch().unwrap();
            path.push(at);
        }
        let idx: Vec<usize> = path.iter().map(|s| s.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 5, 8]);
    }

    #[test]
    fn torus_wrap_links_exist_for_len3() {
        let (mesh_net, _) = mesh(3, 3).unwrap();
        let (torus_net, routes) = torus(3, 3).unwrap();
        assert_eq!(
            torus_net.n_network_links(),
            mesh_net.n_network_links() + 3 + 3
        );
        routes.validate(&torus_net).unwrap();
        assert!(torus_net.is_strongly_connected());
    }

    #[test]
    fn torus_len2_has_no_duplicate_wrap() {
        // For a 2-long dimension the wrap link would duplicate the mesh
        // link, so it is omitted.
        let (net, routes) = torus(2, 2).unwrap();
        assert_eq!(net.n_network_links(), 4); // the 2x2 mesh's links
        routes.validate(&net).unwrap();
    }

    #[test]
    fn torus_routes_take_shorter_way() {
        let (net, routes) = torus(4, 4).unwrap();
        // 0 (0,0) -> 3 (0,3): wrap westward is 1 hop vs 3 eastward.
        let route = routes.route(Flow::from_indices(0, 3)).unwrap();
        assert_eq!(route.len(), 3);
        route.validate(&net, Flow::from_indices(0, 3)).unwrap();
    }

    #[test]
    fn torus_tie_goes_forward() {
        let (net, routes) = torus(4, 4).unwrap();
        // 0 (0,0) -> 2 (0,2): 2 hops either way; forward (eastward) wins.
        let route = routes.route(Flow::from_indices(0, 2)).unwrap();
        assert_eq!(route.len(), 4);
        let (_, head) = net.channel_endpoints(route.hops()[1]).unwrap();
        assert_eq!(head.as_switch().unwrap().index(), 1);
    }

    #[test]
    fn fully_connected_routes_are_direct() {
        let (net, routes) = fully_connected(5).unwrap();
        assert_eq!(net.n_network_links(), 10);
        assert!(routes.iter().all(|(_, r)| r.len() == 3));
        routes.validate(&net).unwrap();
        // Distinct flows between distinct pairs never share channels
        // except at endpoints.
        let r = ConflictSet::from_routes(&routes);
        assert!(!r.conflicts(Flow::from_indices(0, 1), Flow::from_indices(2, 3)));
        // Same source shares the injection link.
        assert!(r.conflicts(Flow::from_indices(0, 1), Flow::from_indices(0, 2)));
    }

    #[test]
    fn grid_dims_match_paper_configs() {
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(9), (3, 3));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7));
    }

    #[test]
    fn single_tile_grid() {
        // 1x1 mesh: one switch, one proc, no flows.
        let (net, routes) = mesh(1, 1).unwrap();
        assert_eq!(net.n_switches(), 1);
        assert!(routes.is_empty());
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn rectangular_mesh_routes_validate() {
        let (net, routes) = mesh(2, 5).unwrap();
        routes.validate(&net).unwrap();
        assert_eq!(routes.len(), 10 * 9);
    }

    #[test]
    fn ring_direction_logic() {
        // No wrap: direction is the sign of (to - from).
        assert!(ring_direction(0, 3, 4, false));
        assert!(!ring_direction(3, 0, 4, false));
        // Wrap: 0 -> 3 in len 4 is shorter backward.
        assert!(!ring_direction(0, 3, 4, true));
        // Tie in len 4: 0 -> 2 goes forward.
        assert!(ring_direction(0, 2, 4, true));
    }
}
