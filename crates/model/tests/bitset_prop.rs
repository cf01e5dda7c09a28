//! Property tests for the `BitSet` kernel (DESIGN.md §11–12): the growable
//! bitset algebra must agree with the reference `BTreeSet` semantics the
//! synthesis search was originally written against, whatever widths the
//! operands grew to; `Eq` and `Hash` must see through the width; and the
//! flow interner must be an order-preserving bijection. These facts are
//! what make the kernel swap bit-identical.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hash, Hasher};

use nocsyn_check::{check, check_assert, check_assert_eq, usize_in, vec_of};
use nocsyn_model::{BitSet, Flow, FlowInterner, FxBuildHasher};

fn model_of(set: &BitSet) -> BTreeSet<usize> {
    set.iter().collect()
}

/// A set of `ids` whose words were first allocated for `width` ids, so
/// equal sets come in different widths.
fn built(width: usize, ids: &[usize]) -> BitSet {
    let mut set = BitSet::with_capacity(width);
    set.extend(ids.iter().copied());
    set
}

fn std_hash(set: &BitSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Union, intersection, xor, difference, popcounts and the overlap tests
/// all agree with the `BTreeSet` reference across mixed widths, and
/// iteration is ascending.
#[test]
fn algebra_matches_btreeset_across_widths() {
    // Operands drawn from different id ranges and pre-sized to different
    // widths, so every binary operation meets a width mismatch both ways.
    let gen = (
        usize_in(0..300),
        vec_of(usize_in(0..400), 0..40),
        usize_in(0..300),
        vec_of(usize_in(0..130), 0..40),
    );
    check(
        "algebra_matches_btreeset_across_widths",
        gen,
        |(width_a, a_ids, width_b, b_ids)| {
            let a = built(*width_a, a_ids);
            let b = built(*width_b, b_ids);
            let ma: BTreeSet<usize> = a_ids.iter().copied().collect();
            let mb: BTreeSet<usize> = b_ids.iter().copied().collect();

            check_assert_eq!(a.len(), ma.len());
            check_assert_eq!(a.is_empty(), ma.is_empty());
            check_assert_eq!(a.intersection_len(&b), ma.intersection(&mb).count());
            check_assert_eq!(b.intersection_len(&a), ma.intersection(&mb).count());
            check_assert_eq!(a == b, ma == mb);

            // Iteration order is ascending — the keystone determinism fact.
            let order: Vec<usize> = a.iter().collect();
            check_assert!(order.windows(2).all(|w| w[0] < w[1]));
            check_assert_eq!(model_of(&a), ma.clone());

            for (x, y, mx, my) in [(&a, &b, &ma, &mb), (&b, &a, &mb, &ma)] {
                let mut u = x.clone();
                u.union_with(y);
                check_assert_eq!(model_of(&u), mx.union(my).copied().collect());

                let mut i = x.clone();
                i.intersect_with(y);
                check_assert_eq!(model_of(&i), mx.intersection(my).copied().collect());

                let mut s = x.clone();
                s.xor_with(y);
                check_assert_eq!(model_of(&s), mx.symmetric_difference(my).copied().collect());
                s.xor_with(y); // self-inverse
                check_assert_eq!(&s, x);

                let mut d = x.clone();
                d.difference_with(y);
                check_assert_eq!(model_of(&d), mx.difference(my).copied().collect());
            }
            Ok(())
        },
    );
}

/// Mutation sequences (insert / remove / toggle / clear) track the
/// reference model exactly, including the "did anything change" returns,
/// and ids past the width read as absent.
#[test]
fn mutation_matches_btreeset() {
    let gen = (
        usize_in(0..200),
        vec_of((usize_in(0..4), usize_in(0..400)), 1..60),
    );
    check("mutation_matches_btreeset", gen, |(width, ops)| {
        let mut set = BitSet::with_capacity(*width);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for &(op, id) in ops {
            match op {
                0 => check_assert_eq!(set.insert(id), model.insert(id)),
                1 => check_assert_eq!(set.remove(id), model.remove(&id)),
                2 => {
                    let model_present = if model.contains(&id) {
                        model.remove(&id);
                        false
                    } else {
                        model.insert(id);
                        true
                    };
                    check_assert_eq!(set.toggle(id), model_present);
                }
                _ => {
                    set.clear();
                    model.clear();
                }
            }
            check_assert_eq!(set.len(), model.len());
            check_assert_eq!(set.contains(id), model.contains(&id));
            check_assert!(!set.contains(id + 1000), "an id past the width is absent");
        }
        check_assert_eq!(model_of(&set), model.clone());
        // A set that grew and emptied again equals a set that never grew.
        check_assert_eq!(set == BitSet::new(), model.is_empty());
        check_assert_eq!(set.clone(), BitSet::from_ids(model.iter().copied()));
        Ok(())
    });
}

/// Toggling a multiset of ids an even number of times each lands back
/// on the empty set — the involution the reroute footprint-toggle
/// discipline relies on (apply route, revert route, nothing sticks).
#[test]
fn double_toggle_is_identity() {
    let gen = vec_of(usize_in(0..400), 0..50);
    check("double_toggle_is_identity", gen, |ids| {
        let mut set = BitSet::new();
        for &id in ids {
            set.toggle(id);
        }
        let after_one_pass = set.clone();
        for &id in ids {
            set.toggle(id);
        }
        check_assert!(set.is_empty(), "double toggle left residue: {set:?}");
        check_assert_eq!(set.clone(), BitSet::new());
        // One pass leaves exactly the odd-multiplicity ids.
        let mut odd: BTreeSet<usize> = BTreeSet::new();
        for &id in ids {
            if !odd.insert(id) {
                odd.remove(&id);
            }
        }
        check_assert_eq!(model_of(&after_one_pass), odd.clone());
        Ok(())
    });
}

/// Equal sets of different widths hash alike, under both the standard
/// hasher and the Fx hasher the memo tables use: `Hash` agrees with `Eq`.
#[test]
fn hash_agrees_with_eq_across_widths() {
    let gen = (
        vec_of(usize_in(0..300), 0..30),
        usize_in(0..300),
        usize_in(0..700),
    );
    check(
        "hash_agrees_with_eq_across_widths",
        gen,
        |(ids, width, grown)| {
            let narrow = BitSet::from_ids(ids.iter().copied());
            let mut wide = built(*width, ids);
            // Grow past `grown` and shrink back: only zero words remain.
            if wide.insert(*grown) {
                wide.remove(*grown);
            }
            check_assert_eq!(&narrow, &wide);
            check_assert_eq!(std_hash(&narrow), std_hash(&wide));
            check_assert_eq!(
                FxBuildHasher.hash_one(&narrow),
                FxBuildHasher.hash_one(&wide)
            );
            Ok(())
        },
    );
}

/// The interner is an order-preserving bijection: ids are sorted-flow
/// ranks, `id` / `flow` invert each other, and `set_of` / `flows_of`
/// round-trip any member subset in lexicographic order.
#[test]
fn interner_round_trip() {
    let gen = vec_of((usize_in(0..12), usize_in(0..12)), 1..50);
    check("interner_round_trip", gen, |raw| {
        let flows: Vec<Flow> = raw
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| Flow::from_indices(s, d))
            .collect();
        let interner = FlowInterner::from_flows(flows.iter().copied());

        // Sorted + deduplicated member list.
        let expected: BTreeSet<Flow> = flows.iter().copied().collect();
        check_assert_eq!(
            interner.flows().to_vec(),
            expected.iter().copied().collect::<Vec<_>>()
        );

        // id and flow are inverse bijections.
        for (i, &f) in interner.flows().iter().enumerate() {
            check_assert_eq!(interner.id(f), Some(i));
            check_assert_eq!(interner.flow(i), f);
        }

        // set_of / flows_of round-trip an arbitrary member subset: take
        // every other member.
        let subset: Vec<Flow> = interner.flows().iter().copied().step_by(2).collect();
        let set = interner.set_of(subset.iter().copied());
        let back: Vec<Flow> = interner.flows_of(&set).collect();
        check_assert_eq!(back, subset.clone());
        Ok(())
    });
}
