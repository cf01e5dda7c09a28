#!/usr/bin/env sh
# Offline CI gate for the hermetic workspace: formatting, lints, then the
# tier-1 build-and-test pass. Everything runs with --offline — the
# workspace has zero external dependencies, so no registry access is
# needed (or allowed).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings -D deprecated"
# -D deprecated is pinned explicitly: the workspace carries no
# #[deprecated] shims (PR 7 removed the last ones) and none may creep
# back in silently.
cargo clippy --offline --workspace --all-targets -- -D warnings -D deprecated

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> golden search, certificate and decomposition pins hold in an optimized build"
# The per-attempt search counters, the golden certificates and the
# decomposed designs at 64-256 nodes are pinned in these three test
# files; release codegen must not move them either. Route repair replays
# an anneal walk whose input its round already annealed (29 of the 64
# walks in certificate_golden are replays), and this run pins replayed
# routes where the debug re-walk oracle is compiled out.
cargo test --release --offline --test determinism --test decomposition --test certificate_golden
# The search's unit tests check the reroute and move probes against a
# real apply; here the probes' own debug-assert oracles are compiled out,
# so these tests are what holds them.
cargo test --release --offline -p nocsyn-synth --lib

echo "==> paper figures: every reproduce figure matches its EXPERIMENTS.md block"
# The debug test run skips the seven figures that are slow there; this
# optimized run checks all eleven.
cargo test --release --offline -p nocsyn-bench --test reproduce

echo "==> benchmark package: builds against the crate APIs it drives, unit tests pass"
# benchmark/ is a workspace of its own, so the workspace build above
# never compiles it.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> no-unwrap gate: clippy -D clippy::unwrap_used on every workspace package"
# The whole workspace, so a new crate cannot slip past the gate; test
# code is out of scope (no --all-targets).
cargo clippy --offline --workspace -- -D warnings -D clippy::unwrap_used

echo "==> engine smoke gate: synth --jobs 1 vs --jobs 4 must be bit-identical"
j1="$(mktemp)"
j4="$(mktemp)"
trap 'rm -f "$j1" "$j4"' EXIT
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 --dot --jobs 1 > "$j1"
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 --dot --jobs 4 > "$j4"
diff "$j1" "$j4"

echo "==> generated-network gate: simulate --network generated --jobs 1 vs --jobs 4"
# The generated network is synthesized through the same engine portfolio
# as `synth`; the worker count must never reach the simulated network.
./target/release/nocsyn simulate examples_data/pipeline.txt --network generated --json --jobs 1 > "$j1"
./target/release/nocsyn simulate examples_data/pipeline.txt --network generated --json --jobs 4 > "$j4"
diff "$j1" "$j4"

echo "==> fault-determinism gate: degradation reports --jobs 1 vs --jobs 4"
./target/release/nocsyn faults examples_data/pipeline.txt --exhaustive --json --jobs 1 > "$j1"
./target/release/nocsyn faults examples_data/pipeline.txt --exhaustive --json --jobs 4 > "$j4"
diff "$j1" "$j4"

echo "==> fuzz smoke gate: 2000 cases/target, clean and byte-identical across runs"
./target/release/nocsyn fuzz --target all --iters 2000 --seed 1 --json > "$j1"
./target/release/nocsyn fuzz --target all --iters 2000 --seed 1 --json > "$j4"
diff "$j1" "$j4"
grep -q '"unique_crashes":0,"unique_budget_violations":0' "$j1"

echo "==> certify gate: synth --emit-cert round-trips through the independent checker"
# Two golden workloads: the bundled pipeline example and an MG8-shaped
# schedule. Each synthesis emits a proof, `nocsyn certify` accepts it,
# a tampered copy is rejected with its stable fingerprint, and same-seed
# re-emission is byte-identical.
cert1="$(mktemp)"
cert2="$(mktemp)"
pat2="$(mktemp)"
trap 'rm -f "$j1" "$j4" "$cert1" "$cert2" "$pat2"' EXIT
printf 'procs 8\nphase bytes=256\n  0 -> 1\n  2 -> 3\n  4 -> 5\n  6 -> 7\nphase bytes=256\n  1 -> 2\n  3 -> 4\n  5 -> 6\n  7 -> 0\n' > "$pat2"
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 2 --seed 9 --emit-cert "$cert1" > /dev/null
./target/release/nocsyn certify examples_data/pipeline.txt "$cert1" --json | grep -q '"valid":true'
./target/release/nocsyn synth "$pat2" --restarts 2 --seed 9 --emit-cert "$cert2" > /dev/null
./target/release/nocsyn certify "$pat2" "$cert2" --json | grep -q '"valid":true'
# Same seed, fresh emission: certificates are byte-deterministic.
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 2 --seed 9 --emit-cert "$j1" > /dev/null
diff "$j1" "$cert1"
# Tampering must be caught (non-zero exit, stable fingerprint on stderr).
sed 's/"contention_free":true/"contention_free":false/' "$cert1" > "$j4"
if ./target/release/nocsyn certify examples_data/pipeline.txt "$j4" > /dev/null 2> "$j1"; then
    echo "tampered certificate was accepted" >&2
    exit 1
fi
grep -q 'cert-binding-mismatch' "$j1"
# A freshly bound forgery whose route channel lists are unsorted (two
# contending flows hide a shared channel from the merge) must be refused
# at parse time.
if ./target/release/nocsyn certify examples_data/forged_unsorted_route.txt \
    examples_data/forged_unsorted_route.cert.json > /dev/null 2> "$j1"; then
    echo "forged certificate with unsorted route channels was accepted" >&2
    exit 1
fi
grep -q 'cert-bad-field' "$j1"
# A certificate in the previous schema is refused, not trusted.
if ./target/release/nocsyn certify examples_data/pipeline.txt \
    examples_data/pipeline.v1.cert.json > /dev/null 2> "$j1"; then
    echo "nocsyn-cert-v1 certificate was accepted" >&2
    exit 1
fi
grep -q 'cert-schema-unsupported' "$j1"

echo "==> serve cache gate: same job twice -> miss then byte-identical hit"
# The daemon in --drain mode is fully scriptable: two copies of the same
# request must come back as a miss then a hit, identical except for the
# cache marker, and the embedded report must be byte-identical to a
# direct `nocsyn synth --json` run of the same job.
req='{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n"}'
printf '%s\n%s\n' "$req" "$req" | ./target/release/nocsyn serve --drain > "$j1"
test "$(wc -l < "$j1")" -eq 2
head -n 1 "$j1" | grep -q '"cache":"miss"'
tail -n 1 "$j1" | grep -q '"cache":"hit"'
head -n 1 "$j1" | sed 's/"cache":"miss"/"cache":"hit"/' > "$j4"
tail -n 1 "$j1" | diff "$j4" -
pat="$(mktemp)"
printf 'procs 4\nphase\n  0 -> 1\n  2 -> 3\n' > "$pat"
direct="$(./target/release/nocsyn synth "$pat" --json)"
rm -f "$pat"
grep -qF "\"report\":${direct}}" "$j1"

echo "==> broken-stderr gate: --events on a full stderr changes neither exit code nor stdout"
# Telemetry is best effort: with stderr on /dev/full every event and the
# degradation notice fail to write, and the run must still exit 0 with
# the same stdout as without --events (a panic would exit 101 here).
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 > "$j1"
./target/release/nocsyn synth examples_data/pipeline.txt --restarts 8 --events > "$j4" 2> /dev/full
diff "$j1" "$j4"
printf '%s\n' "$req" | ./target/release/nocsyn serve --drain > "$j1"
printf '%s\n' "$req" | ./target/release/nocsyn serve --drain --events > "$j4" 2> /dev/full
diff "$j1" "$j4"

echo "==> restart-ceiling gate: an oversized restart count gets a typed reply, the daemon lives on"
# Without --max-restarts the daemon hands a request's restart count to
# the request builder, which refuses counts above its fixed ceiling. The
# refusal is a reply: the next line is answered and the daemon exits 0.
big='{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n","restarts":18446744073709551615}'
printf '%s\n{"op":"stats"}\n' "$big" | ./target/release/nocsyn serve --drain > "$j1"
test "$(wc -l < "$j1")" -eq 2
head -n 1 "$j1" | grep -q '"error":"too-many-restarts"'
tail -n 1 "$j1" | grep -q '"reply":"stats"'

echo "==> chaos gate: seeded fault schedule, zero violations, byte-identical across runs"
# Deterministic chaos harness over the in-process serve stack: injected
# disk/socket/engine faults must never tear a served entry or produce a
# malformed reply, the cache must heal byte-identically once faults
# stop, and the summary itself is a pure function of the seed.
# (Injected engine panics print backtraces on stderr by design.)
./target/release/nocsyn chaos --seed 1 --iters 500 --json > "$j1" 2> /dev/null
./target/release/nocsyn chaos --seed 1 --iters 500 --json > "$j4" 2> /dev/null
diff "$j1" "$j4"
grep -q '"violations":0' "$j1"

echo "==> decomposition determinism gate: synth --decompose --pareto bytes stable across runs"
# Clustered synthesis plus the Pareto sweep is a pure function of the
# seed: two runs of the checked-in 64-node pattern must be
# byte-identical, declare the decomposed mode, and carry the front.
./target/release/nocsyn synth examples_data/clus64.txt --decompose --clusters 4 --restarts 1 --seed 1 --json --pareto > "$j1"
./target/release/nocsyn synth examples_data/clus64.txt --decompose --clusters 4 --restarts 1 --seed 1 --json --pareto > "$j4"
diff "$j1" "$j4"
grep -q '"mode":"decomposed"' "$j1"
grep -q '"pareto":\[' "$j1"

echo "==> decomposed certify gate: stitched result round-trips through the independent checker"
# The certificate of a decomposed synthesis uses the same schema as a
# flat one; the checker must accept it with no knowledge of clustering.
./target/release/nocsyn synth examples_data/clus64.txt --decompose --restarts 2 --seed 65 --emit-cert "$cert1" > /dev/null
./target/release/nocsyn certify examples_data/clus64.txt "$cert1" --json | grep -q '"valid":true'

echo "==> warm-restart gate: a fresh process serves a decomposed job from the disk tier"
# Four daemon processes share one cache dir. The first synthesizes the
# job and commits it with its certificate. The second starts over the warm
# store (the startup scan), runs the checker on the decomposed
# certificate and answers from disk, byte-identical apart from the cache
# marker. Once the stored certificate's verdict is flipped, the third
# process must refuse the entry, re-synthesize, and count one
# certificate error. The fourth finds a certificate of the previous
# schema over the stored one: it must refuse it the same way and commit
# a certificate of the current schema.
cdir="$(mktemp -d)"
trap 'rm -f "$j1" "$j4" "$cert1" "$cert2" "$pat2"; rm -rf "$cdir"' EXIT
pattern_json="$(awk 'BEGIN { ORS = "\\n" } { print }' examples_data/clus64.txt)"
req="{\"op\":\"synth\",\"pattern\":\"${pattern_json}\",\"mode\":\"decomposed\",\"restarts\":2,\"seed\":65}"
printf '%s\n' "$req" | ./target/release/nocsyn serve --drain --cache-dir "$cdir" > "$j1"
printf '%s\n' "$req" | ./target/release/nocsyn serve --drain --cache-dir "$cdir" > "$j4"
test "$(wc -l < "$j1")" -eq 1
grep -q '"cache":"miss"' "$j1"
grep -q '"cache":"disk"' "$j4"
sed 's/"cache":"miss"/"cache":"disk"/' "$j1" | diff - "$j4"
test "$(ls "$cdir"/*.cert.json | wc -l)" -eq 1
stored="$(ls "$cdir"/*.cert.json)"
sed 's/"contention_free":true/"contention_free":false/' "$stored" > "$j4"
if cmp -s "$stored" "$j4"; then
    echo "stored certificate has no verdict to flip" >&2
    exit 1
fi
cp "$j4" "$stored"
printf '%s\n{"op":"stats"}\n' "$req" | ./target/release/nocsyn serve --drain --cache-dir "$cdir" > "$j4"
head -n 1 "$j4" | grep -q '"cache":"miss"'
tail -n 1 "$j4" | grep -q '"cert_errors":1'
cp examples_data/pipeline.v1.cert.json "$stored"
printf '%s\n{"op":"stats"}\n' "$req" | ./target/release/nocsyn serve --drain --cache-dir "$cdir" > "$j4"
head -n 1 "$j4" | grep -q '"cache":"miss"'
tail -n 1 "$j4" | grep -q '"cert_errors":1'
grep -q '^{"schema":"nocsyn-cert-v2"' "$stored"

echo "CI gate passed."
