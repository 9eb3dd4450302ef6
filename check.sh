#!/bin/sh
# Repo gate: build, full test suite, odoc (where installed), CLI
# determinism across --jobs (portfolio 3dft and w5dft run every portfolio
# backend: eq8, harvest:greedy and beam), the observability
# no-perturbation gate, the serve smoke gate (golden stream, error
# recovery, --jobs invariance), the eval counter gate (eval.* counters and
# the serve edit stream byte-identical at any --jobs), the selector gate
# (auto smoke, counter jobs-invariance), the selector fit in release
# (refit = compiled-in table, auto = portfolio entry, regret <= 5%), the
# benchmark determinism gate (same-seed counts and serve digest repeat,
# jobs 1 and nproc classifications agree), and socket serve matching the
# stdin golden.
#
#   ./check.sh          # the whole gate
#   ./check.sh --fast   # build + tests only
#
# Exits non-zero on the first failure and names the stage that failed (a
# failing mid-pipeline gate used to report only dune's exit status).
set -e

STAGE="startup"
tmp1="" tmp4="" trace="" stats=""
on_exit() {
  status=$?
  rm -f "$tmp1" "$tmp4" "$trace" "$stats"
  if [ "$status" -ne 0 ]; then
    printf '\nFAILED at stage: %s\n' "$STAGE" >&2
  fi
}
trap on_exit EXIT

say() { STAGE="$*"; printf '\n== %s ==\n' "$*"; }

say "dune build"
dune build

say "dune runtest"
dune runtest

[ "$1" = "--fast" ] && exit 0

say "dune build @doc (odoc must stay warning-clean enough to build)"
# Without odoc on PATH dune builds no docs and the alias passes vacuously,
# so say so instead of reporting a check that never ran.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "  skipped: odoc is not installed, so no documentation was built"
fi

say "CLI determinism: mpsched output must be byte-identical for any --jobs"
tmp1=$(mktemp) tmp4=$(mktemp)
for spec in "pipeline 3dft" "pipeline fig4" "pipeline w3dft" "pipeline w5dft" \
            "pipeline fft8" "antichains 3dft" \
            "select w5dft" "patterns fft8" "portfolio 3dft" "portfolio w5dft" \
            "exact 3dft" "select 3dft --certify"; do
  # shellcheck disable=SC2086
  dune exec --no-build bin/mpsched.exe -- $spec --jobs 1 > "$tmp1"
  # shellcheck disable=SC2086
  dune exec --no-build bin/mpsched.exe -- $spec --jobs 4 > "$tmp4"
  if ! cmp -s "$tmp1" "$tmp4"; then
    echo "FAIL: mpsched $spec differs between --jobs 1 and --jobs 4" >&2
    diff "$tmp1" "$tmp4" | head -20 >&2
    exit 1
  fi
  echo "  ok: mpsched $spec"
done

say "observability: --stats/--trace must not perturb the primary output"
trace=$(mktemp)
dune exec --no-build bin/mpsched.exe -- schedule fig2_3dft.dot > "$tmp1"
dune exec --no-build bin/mpsched.exe -- schedule fig2_3dft.dot \
  --stats --trace "$trace" > "$tmp4" 2>/dev/null
if ! cmp -s "$tmp1" "$tmp4"; then
  echo "FAIL: --stats/--trace changed the stdout of mpsched schedule" >&2
  diff "$tmp1" "$tmp4" | head -20 >&2
  exit 1
fi
echo "  ok: stdout byte-identical with and without --stats/--trace"
dune exec --no-build bin/mpsched.exe -- tracecheck "$trace"
if ! dune exec --no-build bin/mpsched.exe -- schedule fig2_3dft.dot --stats \
    2>&1 >/dev/null | grep -q "classify"; then
  echo "FAIL: --stats summary is missing the classify phase" >&2
  exit 1
fi
echo "  ok: --stats reports the classify phase"

say "serve smoke: request stream must match golden and be --jobs invariant"
# Three well-formed requests plus one malformed line: the malformed line
# must produce an "ok":false response without killing the session, and the
# whole response stream must be byte-identical at --jobs 1 and --jobs 4 and
# match the committed golden.
cat > "$trace" <<'EOF'
{"id":1,"cmd":"select","graph":"3dft"}
{"id":2,"cmd":"certify","graph":"3dft","options":{"pdef":4}}
not a request
{"id":3,"cmd":"stats"}
EOF
dune exec --no-build bin/mpsched.exe -- serve --stdin --jobs 1 \
  < "$trace" > "$tmp1"
dune exec --no-build bin/mpsched.exe -- serve --stdin --jobs 4 \
  < "$trace" > "$tmp4"
if ! cmp -s "$tmp1" "$tmp4"; then
  echo "FAIL: serve response stream differs between --jobs 1 and --jobs 4" >&2
  diff "$tmp1" "$tmp4" | head -20 >&2
  exit 1
fi
echo "  ok: serve stream byte-identical across --jobs 1 and --jobs 4"
if [ "$(grep -c '"ok":true' "$tmp1")" -ne 3 ] || \
   [ "$(grep -c '"ok":false' "$tmp1")" -ne 1 ]; then
  echo "FAIL: serve smoke expected 3 ok responses and 1 error, got:" >&2
  cat "$tmp1" >&2
  exit 1
fi
echo "  ok: malformed request answered with an error, session survived"
timeout 60 dune exec --no-build bin/mpsched.exe -- serve --stdin \
  < test/cli/serve_requests.txt > "$tmp1"
if ! cmp -s test/cli/serve_smoke.expected "$tmp1"; then
  echo "FAIL: serve output diverged from test/cli/serve_smoke.expected" >&2
  diff test/cli/serve_smoke.expected "$tmp1" | head -20 >&2
  exit 1
fi
echo "  ok: serve stream matches the committed golden"

say "eval counters: --jobs must not perturb eval.* rows or the serve edit stream"
# Every Eval caller commits its counters in submission order, so the eval.*
# counter rows of --stats must be byte-identical at --jobs 1 and --jobs 4
# (exact 3dft), and there must be rows to compare.  Each set the search
# costs is one cache miss, a costing stopped at the incumbent included, so
# eval.cache.misses must total exact.evaluated.  The serve golden stream
# above already carries warm "edit" requests; replay it at --jobs 4 to
# prove the edit path is jobs-invariant too.
stats=$(mktemp)
dune exec --no-build bin/mpsched.exe -- exact 3dft --stats --jobs 1 \
  2>"$stats" >/dev/null
grep '| eval\.' "$stats" > "$tmp1" || true
dune exec --no-build bin/mpsched.exe -- exact 3dft --stats --jobs 4 \
  2>&1 >/dev/null | grep '| eval\.' > "$tmp4" || true
if ! cmp -s "$tmp1" "$tmp4"; then
  echo "FAIL: eval.* counters differ between --jobs 1 and --jobs 4" >&2
  diff "$tmp1" "$tmp4" >&2
  exit 1
fi
if [ ! -s "$tmp1" ]; then
  echo "FAIL: exact 3dft --stats printed no eval.* counter rows to compare" >&2
  exit 1
fi
total() { awk -F'|' -v row="$1" '{ gsub(/ /, "", $2) } $2 == row { gsub(/ /, "", $5); print $5 }' "$stats"; }
misses=$(total eval.cache.misses) evaluated=$(total exact.evaluated)
if [ -z "$misses" ] || [ "$misses" != "$evaluated" ]; then
  echo "FAIL: eval.cache.misses ($misses) differs from exact.evaluated ($evaluated)" >&2
  exit 1
fi
echo "  ok: eval.* counters identical across --jobs; $misses misses = sets evaluated"
timeout 60 dune exec --no-build bin/mpsched.exe -- serve --stdin --jobs 4 \
  < test/cli/serve_requests.txt > "$tmp1"
if ! cmp -s test/cli/serve_smoke.expected "$tmp1"; then
  echo "FAIL: serve edit stream at --jobs 4 diverged from the golden" >&2
  diff test/cli/serve_smoke.expected "$tmp1" | head -20 >&2
  exit 1
fi
echo "  ok: serve edit stream at --jobs 4 matches the committed golden"

say "selector: auto smoke, --stats jobs invariance"
# --strategy auto must dispatch a backend on the paper graphs, and its
# select.auto.* counter rows must be byte-identical at --jobs 1 and
# --jobs 4.
dune exec --no-build bin/mpsched.exe -- select 3dft --strategy auto > "$tmp1"
if ! grep -q '^backend:' "$tmp1"; then
  echo "FAIL: select --strategy auto printed no backend decision" >&2
  cat "$tmp1" >&2
  exit 1
fi
if ! dune exec --no-build bin/mpsched.exe -- pipeline fig4 --strategy auto \
    | grep -q '^auto: dispatched'; then
  echo "FAIL: pipeline --strategy auto printed no auto dispatch line" >&2
  exit 1
fi
echo "  ok: auto dispatches on 3dft and fig4"
dune exec --no-build bin/mpsched.exe -- select 3dft --strategy auto \
  --stats --jobs 1 2>&1 >/dev/null | grep '| select\.auto' > "$tmp1"
dune exec --no-build bin/mpsched.exe -- select 3dft --strategy auto \
  --stats --jobs 4 2>&1 >/dev/null | grep '| select\.auto' > "$tmp4"
if ! cmp -s "$tmp1" "$tmp4"; then
  echo "FAIL: select.auto.* counters differ between --jobs 1 and --jobs 4" >&2
  diff "$tmp1" "$tmp4" >&2
  exit 1
fi
if ! grep -q 'select\.auto\.requests' "$tmp1"; then
  echo "FAIL: --stats shows no select.auto.requests counter" >&2
  cat "$tmp1" >&2
  exit 1
fi
echo "  ok: select.auto.* counters identical across --jobs"

say "selector fit (release profile): refit = Auto.builtin_rules"
# Exits 1 unless the rule table refit over the full corpus and huge tier
# equals the compiled-in Auto.builtin_rules, every auto answer is its
# backend's portfolio entry verbatim (same pattern list, same cycles), and
# median regret is at most 5%.
dune build --profile release bench/main.exe
dune exec --no-build --profile release bench/main.exe -- --fit-selector

say "benchmark determinism: same seed, same counts; jobs 1 = nproc"
# Runs every benchmark workload twice with one seed and exits 1 unless the
# deterministic counts (cycles, antichains, exact-search nodes) and the
# serve response digest repeat, and unless the classifications at jobs 1
# and on nproc domains agree.
python3 perfbench/determinism.py

say "serve socket: --listen/--connect must match the --stdin golden"
sock="${TMPDIR:-/tmp}/mps-check-$$.sock"
dune exec --no-build bin/mpsched.exe -- serve --listen "$sock" &
serve_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i+1)); done
if [ ! -S "$sock" ]; then
  echo "FAIL: serve --listen never created $sock" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
timeout 60 dune exec --no-build bin/mpsched.exe -- serve --connect "$sock" \
  < test/cli/serve_requests.txt > "$tmp1"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$sock"
if ! cmp -s test/cli/serve_smoke.expected "$tmp1"; then
  echo "FAIL: socket serve diverged from test/cli/serve_smoke.expected" >&2
  diff test/cli/serve_smoke.expected "$tmp1" | head -20 >&2
  exit 1
fi
echo "  ok: socket stream matches the committed golden"

say "all checks passed"
STAGE="done"
