//! Fuzz target `chaos_plan`: the result cache's crash-safety contract
//! under arbitrary fault schedules.
//!
//! Each case decodes to a fault-plan seed (first 8 bytes) plus an op
//! script (remaining bytes, capped) driven against a
//! [`ResultCache`] whose disk tier is a [`ChaosDisk`] over an in-memory
//! store — so every filesystem touch may fail or tear, and a scripted
//! "crash + restart" op rebuilds the cache over whatever survived and
//! runs the recovery scan.
//!
//! The oracle is a shadow model: for every key, the set of values ever
//! inserted. The invariants:
//!
//! * no operation ever panics, whatever the faults (a panic is recorded
//!   as a crash by the runner);
//! * every value a lookup returns — from memory or from a
//!   recovered-after-crash disk tier — is one the shadow model inserted
//!   under that key: torn, foreign, or cross-key bytes are never served;
//! * a lookup whose certificate validator refuses is served from memory
//!   or not at all.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use nocsyn_model::sha256;
use nocsyn_serve::{CacheTier, ChaosDisk, DiskIo, FaultPlan, FaultPoint, MemDisk, ResultCache};

use crate::target::{CaseReport, FuzzTarget};

/// Distinct keys the script addresses (two bits of each op byte).
const KEYS: usize = 4;

/// Longest op script one case may run, so a fuzz iteration stays cheap.
const MAX_OPS: usize = 96;

fn fuzz_cache(store: &Arc<MemDisk>, plan: &Arc<Mutex<FaultPlan>>) -> ResultCache {
    let disk: Arc<dyn DiskIo> = Arc::new(ChaosDisk::new(store.clone(), plan.clone()));
    ResultCache::new(2)
        .with_dir(PathBuf::from("chaos-fuzz"))
        .with_io(disk)
}

/// Built-in target: `ResultCache` + `ChaosDisk` with the shadow-model
/// oracle.
pub fn chaos_plan_target() -> FuzzTarget {
    FuzzTarget::new("chaos_plan", chaos_corpus(), |input| {
        let mut seed_bytes = [0u8; 8];
        for (i, b) in input.iter().take(8).enumerate() {
            seed_bytes[i] = *b;
        }
        let seed = u64::from_le_bytes(seed_bytes);
        let script: &[u8] = input.get(8..).unwrap_or(&[]);
        let script = &script[..script.len().min(MAX_OPS)];

        let store = Arc::new(MemDisk::new());
        // Hot probabilistic faults on top of whatever the script does,
        // so even short scripts see torn and failed I/O.
        let plan = Arc::new(Mutex::new(
            FaultPlan::seeded(seed)
                .with_probability(FaultPoint::DiskWrite, 0.30)
                .with_probability(FaultPoint::DiskRead, 0.25)
                .with_probability(FaultPoint::DiskRename, 0.20),
        ));
        let mut cache = fuzz_cache(&store, &plan);
        let mut shadow: Vec<BTreeSet<String>> = vec![BTreeSet::new(); KEYS];
        let mut served = 0u64;
        for (i, op) in script.iter().enumerate() {
            let k = usize::from(op >> 6) % KEYS;
            let key = sha256(&[k as u8]);
            match op % 4 {
                0 => {
                    // Insert a value unique to this script position; the
                    // certificate is any well-formed JSON.
                    let value = format!("{{\"v\":{i}}}");
                    let cert = format!("{{\"c\":{i}}}");
                    shadow[k].insert(value.clone());
                    cache.insert_with_cert(key, value, Some(cert));
                }
                1 => {
                    // A validator that refuses every certificate: disk
                    // entries take the refusal path, memory still serves.
                    if let Some((value, tier)) = cache.lookup_certified(&key, |_| false) {
                        assert_eq!(tier, CacheTier::Hit, "a refused entry was served");
                        assert!(
                            shadow[k].contains(&value),
                            "lookup served bytes never inserted under this key: {value}"
                        );
                        served += 1;
                    }
                }
                2 => {
                    let ok = cache.lookup_certified(&key, |cert| cert.starts_with('{'));
                    if let Some((value, _tier)) = ok {
                        assert!(
                            shadow[k].contains(&value),
                            "certified lookup served bytes never inserted: {value}"
                        );
                        served += 1;
                    }
                }
                _ => {
                    // Crash + restart: the in-memory tier dies, the plan
                    // revives, and a fresh cache recovers the surviving
                    // store. The shadow model survives — disk entries
                    // must still resolve to previously inserted values.
                    plan.lock()
                        .expect("fault plan lock never poisoned")
                        .revive();
                    cache = fuzz_cache(&store, &plan);
                    cache.recover();
                }
            }
        }
        CaseReport::accepted(script.len() as u64, served)
    })
}

/// Seed corpus: scripts that reach every op kind, crash-heavy mixes, and
/// degenerate frames (empty, seed-only).
pub fn chaos_corpus() -> Vec<Vec<u8>> {
    let with_seed = |seed: u64, ops: &[u8]| {
        let mut case = seed.to_le_bytes().to_vec();
        case.extend_from_slice(ops);
        case
    };
    vec![
        Vec::new(),
        with_seed(0, &[]),
        // Insert / lookup / certified-lookup over every key.
        with_seed(
            1,
            &[
                0x00, 0x01, 0x02, 0x40, 0x41, 0x42, 0x80, 0x81, 0x82, 0xC0, 0xC1, 0xC2,
            ],
        ),
        // Crash-heavy: insert, crash, lookup, repeat.
        with_seed(2, &[0x00, 0x03, 0x01, 0x40, 0x43, 0x41, 0x80, 0x83, 0x82]),
        // Lookups before any insert (cold misses under faults).
        with_seed(3, &[0x01, 0x02, 0x41, 0x42, 0x03, 0x01]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_accepts_the_corpus() {
        let target = chaos_plan_target();
        for entry in chaos_corpus() {
            let report = target.run(&entry);
            assert_eq!(report.rejected, None, "chaos_plan never rejects");
        }
    }

    #[test]
    fn long_random_scripts_hold_the_shadow_invariant() {
        let target = chaos_plan_target();
        // A deterministic pseudo-random script stressing all op kinds.
        let mut case = 0xDEAD_BEEFu64.to_le_bytes().to_vec();
        let mut x = 0x9E37_79B9u32;
        for _ in 0..MAX_OPS {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            case.push((x >> 13) as u8);
        }
        let report = target.run(&case);
        assert_eq!(report.rejected, None);
        assert_eq!(report.ticks, MAX_OPS as u64);
    }
}
