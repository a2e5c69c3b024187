#!/usr/bin/env bash
# End-to-end CLI contract test for the index/query subcommands, registered
# with ctest (tests/CMakeLists.txt): exit code 0 on the happy path, 1 on
# usage errors, and 2 with a one-line diagnostic — never a crash — on
# corrupt, truncated, version-bumped or wrong-magic index files.
#
# Usage: cli_index_test.sh /path/to/bayeslsh_cli
set -u

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fails=0
check_rc() { # description expected_rc actual_rc
  if [ "$3" -ne "$2" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)" >&2
    fails=$((fails + 1))
  fi
}
check_one_error_line() { # description stderr_file
  lines=$(wc -l < "$2")
  if [ "$lines" -ne 1 ] || ! grep -q '^error:' "$2"; then
    echo "FAIL: $1 (expected one 'error:' line, got $lines line(s)):" >&2
    cat "$2" >&2
    fails=$((fails + 1))
  fi
}

"$CLI" generate --kind text --vectors 200 --output corpus.txt --seed 5 \
  2>/dev/null
check_rc "generate" 0 $?

"$CLI" index --input corpus.txt --output corpus.idx --measure cosine \
  --threshold 0.6 --tfidf --normalize 2>/dev/null
check_rc "index build" 0 $?

"$CLI" query --index corpus.idx --query-file corpus.txt --normalize \
  --top-k 5 --output matches.txt 2>/dev/null
check_rc "query against valid index" 0 $?
[ -s matches.txt ] || { echo "FAIL: query produced no output" >&2; fails=$((fails + 1)); }

# Batched concurrent serving must be byte-identical to the serial loop,
# frozen or not, and --qps-report must emit a machine-readable line.
"$CLI" query --index corpus.idx --query-file corpus.txt --normalize \
  --top-k 5 --batch --freeze --threads 2 --qps-report \
  --output batch.txt 2>batch_err.txt
check_rc "batched frozen query" 0 $?
cmp -s matches.txt batch.txt || { echo "FAIL: --batch output differs from serial loop" >&2; fails=$((fails + 1)); }
grep -q '"qps"' batch_err.txt || { echo "FAIL: --qps-report emitted no qps line" >&2; fails=$((fails + 1)); }

# A data file with a non-finite weight is refused like any malformed
# weight: one error line naming the row, exit 2, and no index written.
for w in nan NaN inf -inf infinity; do
  printf '%%BayesLSH sparse 1.0\n2 4\n0:1 1:0.5\n2:1 3:%s\n' "$w" \
    > nonfinite.txt
  "$CLI" index --input nonfinite.txt --output nonfinite.idx \
    --measure cosine --threshold 0.6 2>err.txt
  check_rc "index with weight $w" 2 $?
  check_one_error_line "index with weight $w" err.txt
  grep -q 'row 1' err.txt || { echo "FAIL: weight $w error does not name the row" >&2; fails=$((fails + 1)); }
  [ ! -e nonfinite.idx ] || { echo "FAIL: index with weight $w wrote a file" >&2; fails=$((fails + 1)); rm -f nonfinite.idx; }
done

# Usage errors: exit 1.
"$CLI" index --input corpus.txt 2>/dev/null
check_rc "index without --output" 1 $?
"$CLI" query --index corpus.idx 2>/dev/null
check_rc "query without --query-file" 1 $?

# Wrong magic: a dataset file is not an index.
"$CLI" query --index corpus.txt --query-file corpus.txt 2>err.txt
check_rc "dataset file as index" 2 $?
check_one_error_line "dataset file as index" err.txt

# Truncations at several depths: header, dataset section, tail.
size=$(wc -c < corpus.idx)
for len in 4 20 200 $((size / 2)) $((size - 3)); do
  head -c "$len" corpus.idx > trunc.idx
  "$CLI" query --index trunc.idx --query-file corpus.txt 2>err.txt
  check_rc "truncated index ($len bytes)" 2 $?
  check_one_error_line "truncated index ($len bytes)" err.txt
done

# Version bump: byte 8 is the little-endian format-version LSB.
cp corpus.idx bumped.idx
printf '\x63' | dd of=bumped.idx bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
"$CLI" query --index bumped.idx --query-file corpus.txt 2>err.txt
check_rc "version-bumped index" 2 $?
check_one_error_line "version-bumped index" err.txt
grep -q 'version' err.txt || { echo "FAIL: version bump not diagnosed as such" >&2; fails=$((fails + 1)); }

# Header corruption: flip a seed byte; the config fingerprint must catch it.
cp corpus.idx corrupt.idx
printf '\xff' | dd of=corrupt.idx bs=1 seek=16 count=1 conv=notrunc 2>/dev/null
"$CLI" query --index corrupt.idx --query-file corpus.txt 2>err.txt
check_rc "header-corrupted index" 2 $?
check_one_error_line "header-corrupted index" err.txt

# Pure garbage.
head -c 4096 /dev/urandom > garbage.idx
"$CLI" query --index garbage.idx --query-file corpus.txt 2>err.txt
check_rc "garbage index" 2 $?
check_one_error_line "garbage index" err.txt

# Missing file.
"$CLI" query --index /nonexistent/nope.idx --query-file corpus.txt 2>err.txt
check_rc "missing index file" 2 $?
check_one_error_line "missing index file" err.txt

# Query file over a different vocabulary (dimensionality mismatch). The
# graph has exactly --vectors rows: generate caps its planted communities.
"$CLI" generate --kind graph --vectors 50 --output other.txt --seed 9 \
  2>/dev/null
check_rc "generate a 50-node graph" 0 $?
[ "$(sed -n 2p other.txt)" = "50 50" ] || { echo "FAIL: 50-node graph header is '$(sed -n 2p other.txt)', not '50 50'" >&2; fails=$((fails + 1)); }
"$CLI" query --index corpus.idx --query-file other.txt 2>err.txt
check_rc "query file dimensionality mismatch" 2 $?
check_one_error_line "query file dimensionality mismatch" err.txt

# A corpus of no vectors is a usage error, and no file is written.
for kind in text graph; do
  "$CLI" generate --kind "$kind" --vectors 0 --output none.txt 2>err.txt
  check_rc "generate --kind $kind --vectors 0" 1 $?
  check_one_error_line "generate --kind $kind --vectors 0" err.txt
  [ ! -e none.txt ] || { echo "FAIL: generate --kind $kind --vectors 0 wrote a file" >&2; fails=$((fails + 1)); }
done

# An empty query workload is a data error, not a silent no-op: exit 2
# with one diagnostic, like the corrupt-index cases.
printf '%%BayesLSH sparse 1.0\n0 100\n' > empty_queries.txt
"$CLI" query --index corpus.idx --query-file empty_queries.txt 2>err.txt
check_rc "empty query file" 2 $?
check_one_error_line "empty query file" err.txt

# So is a query vector with zero nonzero entries (row 1 here).
dims=$(sed -n 2p corpus.txt | cut -d' ' -f2)
printf '%%BayesLSH sparse 1.0\n2 %s\n0:1.0\n\n' "$dims" > zero_row.txt
"$CLI" query --index corpus.idx --query-file zero_row.txt 2>err.txt
check_rc "zero-nonzero query row" 2 $?
check_one_error_line "zero-nonzero query row" err.txt
grep -q 'row 1' err.txt || { echo "FAIL: zero-nonzero row not identified by index" >&2; fails=$((fails + 1)); }

# A banding shape the load path could never accept is refused at build
# time (usage error, not a broken index file).
"$CLI" index --input corpus.txt --output never.idx --band-hashes 65 \
  2>err.txt
check_rc "unloadable banding shape refused at build" 1 $?
[ ! -e never.idx ] || { echo "FAIL: unloadable index was written" >&2; fails=$((fails + 1)); }

# --- pathological index paths must fail closed (exit 2, one line) ---

mkdir -p somedir
"$CLI" query --index somedir --query-file corpus.txt 2>err.txt
check_rc "directory as index" 2 $?
check_one_error_line "directory as index" err.txt

: > zerobyte.idx
"$CLI" query --index zerobyte.idx --query-file corpus.txt 2>err.txt
check_rc "zero-byte index" 2 $?
check_one_error_line "zero-byte index" err.txt

"$CLI" index --input somedir --output x.idx 2>err.txt
check_rc "directory as index input" 2 $?
check_one_error_line "directory as index input" err.txt

"$CLI" query --index corpus.idx --query-file zerobyte.idx 2>err.txt
check_rc "zero-byte query file" 2 $?
check_one_error_line "zero-byte query file" err.txt

# An unreadable file (root can read anything, so skip when effectively
# root, e.g. in CI containers).
if [ "$(id -u)" != 0 ]; then
  cp corpus.idx locked.idx
  chmod 000 locked.idx
  "$CLI" query --index locked.idx --query-file corpus.txt 2>err.txt
  check_rc "unreadable index" 2 $?
  check_one_error_line "unreadable index" err.txt
  chmod 600 locked.idx
fi

# --- dynamic index lifecycle: add / remove / compact / query ---

"$CLI" add --index corpus.idx --input corpus.txt --normalize \
  --output corpus.dyn 2>add_err.txt
check_rc "add (plain index upgraded to manifest)" 0 $?
grep -q 'ids 200\.\.399' add_err.txt || { echo "FAIL: add did not report the assigned id range" >&2; fails=$((fails + 1)); }

"$CLI" query --index corpus.dyn --query-file corpus.txt --normalize \
  --top-k 5 --output dyn_matches.txt --qps-report 2>dyn_err.txt
check_rc "query against dynamic manifest" 0 $?
[ -s dyn_matches.txt ] || { echo "FAIL: dynamic query produced no output" >&2; fails=$((fails + 1)); }
grep -q '"dynamic": true' dyn_err.txt || { echo "FAIL: qps report did not mark the index dynamic" >&2; fails=$((fails + 1)); }
grep -q '"threads_used"' dyn_err.txt || { echo "FAIL: qps report lacks threads_used" >&2; fails=$((fails + 1)); }

# Batch serving over a manifest is byte-identical to the serial loop.
"$CLI" query --index corpus.dyn --query-file corpus.txt --normalize \
  --top-k 5 --batch --threads 2 --output dyn_batch.txt 2>/dev/null
check_rc "batched dynamic query" 0 $?
cmp -s dyn_matches.txt dyn_batch.txt || { echo "FAIL: dynamic --batch output differs from serial loop" >&2; fails=$((fails + 1)); }

# --freeze is a plain-index knob; on a manifest it is a usage error.
"$CLI" query --index corpus.dyn --query-file corpus.txt --freeze 2>err.txt
check_rc "freeze on dynamic manifest" 1 $?

"$CLI" remove --index corpus.dyn --ids 0,399 2>/dev/null
check_rc "remove live ids" 0 $?
# A negative id must be a usage error, not a strtoull wraparound into
# some unrelated live id; duplicates collapse to one removal.
"$CLI" remove --index corpus.dyn --ids -3 2>err.txt
check_rc "negative id rejected" 1 $?
"$CLI" remove --index corpus.dyn --ids 7,7 2>rm_dup.txt
check_rc "duplicate ids deduped" 0 $?
grep -q 'removed 1 vector' rm_dup.txt || { echo "FAIL: duplicate ids were double-counted" >&2; fails=$((fails + 1)); }
"$CLI" remove --index corpus.dyn --ids 0 2>err.txt
check_rc "remove of a dead id fails closed" 2 $?
check_one_error_line "remove of a dead id fails closed" err.txt
"$CLI" remove --index corpus.dyn --ids 1,99999 2>err.txt
check_rc "remove with one unknown id is all-or-nothing" 2 $?
"$CLI" query --index corpus.dyn --query-file corpus.txt --normalize \
  --top-k 5 --output dyn_after_rm.txt 2>/dev/null
check_rc "query after remove" 0 $?
grep -qE '^1 1 ' dyn_after_rm.txt || { echo "FAIL: id 1 should still be served after the rejected batch" >&2; fails=$((fails + 1)); }

# Compaction preserves results exactly.
"$CLI" compact --index corpus.dyn 2>/dev/null
check_rc "compact" 0 $?
"$CLI" query --index corpus.dyn --query-file corpus.txt --normalize \
  --top-k 5 --output dyn_compacted.txt 2>/dev/null
check_rc "query after compact" 0 $?
cmp -s dyn_after_rm.txt dyn_compacted.txt || { echo "FAIL: compaction changed query results" >&2; fails=$((fails + 1)); }

# A plain index is already compact: report and succeed without writing.
"$CLI" compact --index corpus.idx 2>err.txt
check_rc "compact on plain index" 0 $?

# Adding an empty workload is a data error, like querying with one.
"$CLI" add --index corpus.idx --input empty_queries.txt --output x.dyn \
  2>err.txt
check_rc "add with empty input" 2 $?
check_one_error_line "add with empty input" err.txt
[ ! -e x.dyn ] || { echo "FAIL: empty add wrote a manifest" >&2; fails=$((fails + 1)); }

# Corrupt manifests fail closed like corrupt indexes.
size=$(wc -c < corpus.dyn)
for len in 4 30 $((size / 2)) $((size - 3)); do
  head -c "$len" corpus.dyn > trunc.dyn
  "$CLI" query --index trunc.dyn --query-file corpus.txt 2>err.txt
  check_rc "truncated manifest ($len bytes)" 2 $?
  check_one_error_line "truncated manifest ($len bytes)" err.txt
done
cp corpus.dyn bumped.dyn
printf '\x63' | dd of=bumped.dyn bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
"$CLI" query --index bumped.dyn --query-file corpus.txt 2>err.txt
check_rc "version-bumped manifest" 2 $?
check_one_error_line "version-bumped manifest" err.txt
grep -q 'version' err.txt || { echo "FAIL: manifest version bump not diagnosed as such" >&2; fails=$((fails + 1)); }

# --- durability options: --wal / --wal-sync / auto-compaction ---
# (Torn-log recovery itself is exercised end to end by the crash_recover
# harness and tests/durable_dynamic_test.cc; here we pin the CLI
# plumbing: flag validation, log creation, replay-identity, and the
# fail-closed contract on a corrupt log.)

# --wal only makes sense for dynamic indexes.
"$CLI" query --index corpus.idx --query-file corpus.txt --normalize \
  --wal nope.wal 2>err.txt
check_rc "--wal on a plain index is a usage error" 1 $?

# Auto-compaction knobs are validated.
"$CLI" add --index corpus.idx --input corpus.txt --normalize \
  --output never.dyn --compact-tombstones 1.5 2>err.txt
check_rc "out-of-range --compact-tombstones" 1 $?

# A logged add creates the WAL (reset to empty by the manifest
# checkpoint at the end of the command) with the documented magic.
"$CLI" add --index corpus.idx --input corpus.txt --normalize \
  --wal tour.wal --wal-sync --output walled.dyn 2>/dev/null
check_rc "add with --wal --wal-sync" 0 $?
[ "$(head -c 8 tour.wal)" = "BLSHWL1E" ] || { echo "FAIL: WAL magic is not BLSHWL1E" >&2; fails=$((fails + 1)); }

# Replaying the (checkpoint-reset, empty) log changes nothing: query
# with and without --wal are byte-identical, and both match the earlier
# plain-manifest results (rebuild identity across compaction states).
"$CLI" query --index walled.dyn --query-file corpus.txt --normalize \
  --top-k 5 --output walled_q.txt 2>/dev/null
check_rc "query walled manifest" 0 $?
"$CLI" query --index walled.dyn --query-file corpus.txt --normalize \
  --top-k 5 --wal tour.wal --output walled_q_wal.txt 2>/dev/null
check_rc "query walled manifest with --wal" 0 $?
cmp -s walled_q.txt walled_q_wal.txt || { echo "FAIL: empty-WAL replay changed query results" >&2; fails=$((fails + 1)); }
cmp -s dyn_matches.txt walled_q.txt || { echo "FAIL: walled manifest diverged from the plain manifest" >&2; fails=$((fails + 1)); }

# A corrupt log fails every attaching command closed: exit 2, one line.
printf 'X' | dd of=tour.wal bs=1 seek=3 count=1 conv=notrunc 2>/dev/null
"$CLI" query --index walled.dyn --query-file corpus.txt --normalize \
  --wal tour.wal 2>err.txt
check_rc "query with corrupt WAL" 2 $?
check_one_error_line "query with corrupt WAL" err.txt
"$CLI" add --index walled.dyn --input corpus.txt --normalize \
  --wal tour.wal 2>err.txt
check_rc "add with corrupt WAL" 2 $?
check_one_error_line "add with corrupt WAL" err.txt

# Auto-compaction flags: same results as the un-triggered manifest.
"$CLI" add --index corpus.idx --input corpus.txt --normalize \
  --compact-delta-rows 50 --output ac.dyn 2>/dev/null
check_rc "add with --compact-delta-rows" 0 $?
"$CLI" query --index ac.dyn --query-file corpus.txt --normalize \
  --top-k 5 --output ac_q.txt 2>/dev/null
check_rc "query auto-compacted manifest" 0 $?
cmp -s dyn_matches.txt ac_q.txt || { echo "FAIL: auto-compaction changed query results" >&2; fails=$((fails + 1)); }

# qps-report counts tombstone-suppressed (ghost) matches; a removed
# self-matching row must surface as at least one ghost.
"$CLI" remove --index ac.dyn --ids 0 2>/dev/null
check_rc "remove for ghost accounting" 0 $?
"$CLI" query --index ac.dyn --query-file corpus.txt --normalize \
  --top-k 5 --qps-report --output /dev/null 2>ghost_err.txt
check_rc "query with ghosts" 0 $?
ghosts=$(grep -o '"ghost_candidates": [0-9]*' ghost_err.txt | grep -o '[0-9]*$')
[ -n "$ghosts" ] || { echo "FAIL: qps report lacks ghost_candidates" >&2; fails=$((fails + 1)); }
[ "${ghosts:-0}" -gt 0 ] || { echo "FAIL: removed self-match produced no ghost candidates" >&2; fails=$((fails + 1)); }
# Compaction reclaims the rows, so the ghost count returns to zero.
"$CLI" compact --index ac.dyn 2>/dev/null
check_rc "compact after ghosts" 0 $?
"$CLI" query --index ac.dyn --query-file corpus.txt --normalize \
  --top-k 5 --qps-report --output /dev/null 2>ghost_err.txt
check_rc "query after ghost compaction" 0 $?
grep -q '"ghost_candidates": 0' ghost_err.txt || { echo "FAIL: ghosts survived compaction" >&2; fails=$((fails + 1)); }

# --- sharded serve front-end: protocol, identity, admission, shutdown ---

# The qps report carries the robustness counters; unsharded serving
# reports them as 0 (one report shape for every serving mode).
for key in deadline_expired shards_answered; do
  grep -q "\"$key\": 0" dyn_err.txt || { echo "FAIL: qps report lacks $key" >&2; fails=$((fails + 1)); }
done

# serve assigns fresh dense ids over the loaded live corpus and must
# answer a protocol query identically to the `query` subcommand against
# the same (un-tfidf'd, so raw rows are queryable) index.
"$CLI" index --input corpus.txt --output serve.idx --measure cosine \
  --threshold 0.6 --normalize 2>/dev/null
check_rc "index build for serve" 0 $?
"$CLI" query --index serve.idx --query-file corpus.txt --normalize \
  --top-k 5 --output serve_expected.txt 2>/dev/null
check_rc "unsharded oracle for serve" 0 $?

row=$(sed -n 3p corpus.txt)  # vector 0's raw text row
printf '@alice query %s\nstats\nquit\n' "$row" \
  | "$CLI" serve --index serve.idx --shards 4 --normalize --top-k 5 \
    >serve_out.txt 2>serve_err.txt
check_rc "serve happy path" 0 $?
grep -q 'serving 200 vectors across 4 shards' serve_err.txt || { echo "FAIL: serve banner missing" >&2; fails=$((fails + 1)); }
head -n1 serve_out.txt | grep -qE '^matches [0-9]+ shards 4/4$' || { echo "FAIL: serve response header malformed or degraded:" >&2; head -n1 serve_out.txt >&2; fails=$((fails + 1)); }
n=$(head -n1 serve_out.txt | awk '{print $2}')
sed -n "2,$((n + 1))p" serve_out.txt > serve_matches.txt
grep '^0 ' serve_expected.txt | cut -d' ' -f2- > serve_oracle.txt
cmp -s serve_matches.txt serve_oracle.txt || { echo "FAIL: sharded serve answers differ from the unsharded query oracle" >&2; fails=$((fails + 1)); }
grep -q '"queries": 1' serve_out.txt || { echo "FAIL: serve stats did not count the query" >&2; fails=$((fails + 1)); }
grep -q '"breakers": \["closed", "closed", "closed", "closed"\]' serve_out.txt || { echo "FAIL: serve stats lack per-shard breaker states" >&2; fails=$((fails + 1)); }

# A time budget past the steady clock's range (1e13 ms is about 317
# years) bounds nothing: the transcript is the unbounded one, not an
# expired deadline or a timed-out shard.
printf '@alice query %s\nstats\nquit\n' "$row" \
  | "$CLI" serve --index serve.idx --shards 4 --normalize --top-k 5 \
    --deadline-ms 1e13 --shard-timeout-ms 1e13 --drain-timeout-ms 1e13 \
    >serve_huge.txt 2>/dev/null
check_rc "serve with huge time budgets" 0 $?
cmp -s serve_huge.txt serve_out.txt || { echo "FAIL: a huge time budget changed the serve transcript" >&2; fails=$((fails + 1)); }

# Routed mutations: the next dense id is 200; a double remove and an
# unknown id answer in-band errors without killing the server.
printf 'add %s\nremove 200\nremove 200\nremove 99999\nquit\n' "$row" \
  | "$CLI" serve --index serve.idx --shards 4 --normalize \
    >serve_mut.txt 2>/dev/null
check_rc "serve mutations" 0 $?
grep -q '^added 200$' serve_mut.txt || { echo "FAIL: serve add did not assign the next dense id" >&2; fails=$((fails + 1)); }
grep -q '^removed 200$' serve_mut.txt || { echo "FAIL: serve remove failed" >&2; fails=$((fails + 1)); }
[ "$(grep -c '^error: id ' serve_mut.txt)" -eq 2 ] || { echo "FAIL: dead/unknown ids must answer in-band errors" >&2; fails=$((fails + 1)); }

# Non-finite weights never reach a hash family: serve answers each such
# line with one in-band error (1e300 overflows the float cast) and leaves
# the index unchanged.
printf 'add 0:nan 1:1\nadd 0:1e300\nquery 0:inf\nstats\nquit\n' \
  | "$CLI" serve --index serve.idx --shards 4 --normalize \
    >serve_nonfinite.txt 2>/dev/null
check_rc "serve with non-finite weights" 0 $?
[ "$(grep -c '^error: ' serve_nonfinite.txt)" -eq 3 ] || { echo "FAIL: non-finite weights must each answer one error" >&2; fails=$((fails + 1)); }
grep -q '"num_live": 200,' serve_nonfinite.txt || { echo "FAIL: a rejected non-finite add changed num_live" >&2; fails=$((fails + 1)); }

# A zero weight drops its entry, as in the dataset text format. On a
# Jaccard index a kept entry would join the query's set, so vector 0 with
# ten zero-weight dims appended (dims it does not hold) must answer as
# `query` answers vector 0 read from the corpus file.
"$CLI" index --input corpus.txt --output serve_j.idx --measure jaccard \
  --threshold 0.3 2>/dev/null
check_rc "jaccard index build for serve" 0 $?
"$CLI" query --index serve_j.idx --query-file corpus.txt \
  --output serve_j_expected.txt 2>/dev/null
check_rc "jaccard oracle for serve" 0 $?
zeros=$(sed -n 2p corpus.txt | awk -v row="$row" '{
  n = split(row, e, " "); for (i = 1; i <= n; ++i) { split(e[i], p, ":"); held[p[1]] = 1 }
  for (d = $2 - 1; d >= 0 && k < 10; --d) if (!(d in held)) { printf " %d:0", d; ++k }
}')
printf 'query %s%s\nquit\n' "$row" "$zeros" \
  | "$CLI" serve --index serve_j.idx --shards 2 >serve_zero.txt 2>/dev/null
check_rc "serve with zero weights" 0 $?
n=$(head -n1 serve_zero.txt | awk '{print $2}')
sed -n "2,$((n + 1))p" serve_zero.txt > serve_zero_matches.txt
grep '^0 ' serve_j_expected.txt | cut -d' ' -f2- > serve_zero_oracle.txt
[ -s serve_zero_oracle.txt ] && cmp -s serve_zero_matches.txt serve_zero_oracle.txt || { echo "FAIL: serve answers a vector with zero weights differently from query" >&2; fails=$((fails + 1)); }

# A vector whose every weight is zero is empty: query and add both refuse
# it in-band, and the add leaves the index unchanged.
printf 'query 5:0\nadd 5:0 7:0\nstats\nquit\n' \
  | "$CLI" serve --index serve_j.idx --shards 2 >serve_allzero.txt 2>/dev/null
check_rc "serve with all-zero vectors" 0 $?
[ "$(grep -c '^error: vector has no entries' serve_allzero.txt)" -eq 2 ] || { echo "FAIL: all-zero vectors must each answer the no-entries error" >&2; fails=$((fails + 1)); }
grep -q '"num_live": 200,' serve_allzero.txt || { echo "FAIL: a refused all-zero add changed num_live" >&2; fails=$((fails + 1)); }

# Admission control: with a starved token bucket the second query is
# rejected immediately and counted, and the server keeps serving.
printf '@c query %s\n@c query %s\nstats\nquit\n' "$row" "$row" \
  | "$CLI" serve --index serve.idx --shards 2 --normalize --top-k 1 \
    --rate 0.001 --burst 1 >serve_load.txt 2>/dev/null
check_rc "serve under overload" 0 $?
grep -q '^rejected overload$' serve_load.txt || { echo "FAIL: starved bucket did not reject" >&2; fails=$((fails + 1)); }
grep -q '"rejected_overload": 1' serve_load.txt || { echo "FAIL: serve stats did not count the rejection" >&2; fails=$((fails + 1)); }

# Malformed protocol lines are answered in-band: the server survives
# them all and still exits cleanly.
printf 'query 99999999:1\nquery notavector\nquery\nremove x\nnope\nquit\n' \
  | "$CLI" serve --index serve.idx --shards 2 >serve_bad.txt 2>/dev/null
check_rc "serve survives malformed lines" 0 $?
[ "$(grep -c '^error: ' serve_bad.txt)" -eq 5 ] || { echo "FAIL: malformed protocol lines must each answer one error" >&2; fails=$((fails + 1)); }

# Usage and data errors fail closed like every other subcommand.
"$CLI" serve 2>/dev/null </dev/null
check_rc "serve without --index" 1 $?
printf 'quit\n' | "$CLI" serve --index serve.idx --shards 0 2>/dev/null
check_rc "serve with zero shards" 1 $?
"$CLI" serve --index garbage.idx </dev/null 2>err.txt
check_rc "serve on garbage index" 2 $?
check_one_error_line "serve on garbage index" err.txt

# --- serving measures: wjaccard / klsh / euclidean share the lifecycle ---

# Measure parsing fails closed.
"$CLI" index --input corpus.txt --output nope.idx --measure nope 2>/dev/null
check_rc "unknown measure" 1 $?

# allpairs joins the new measures through the LSH generator; every printed
# pair meets its threshold (for euclidean: a distance within the radius).
allpairs_meets_threshold() { # measure threshold awk_violation [flags...]
  m="$1"; t="$2"; bad="$3"; shift 3
  "$CLI" allpairs --input corpus.txt --measure "$m" --threshold "$t" \
    --generator lsh --verifier bayeslsh-lite --output "ap_$m.txt" "$@" \
    2>/dev/null
  check_rc "$m allpairs" 0 $?
  [ -s "ap_$m.txt" ] || { echo "FAIL: $m allpairs found no pairs" >&2; fails=$((fails + 1)); }
  awk -v t="$t" "$bad { exit 1 }" "ap_$m.txt" || { echo "FAIL: $m allpairs printed a pair beyond its threshold" >&2; fails=$((fails + 1)); }
}
allpairs_meets_threshold wjaccard 0.5 '$3 < t'
allpairs_meets_threshold klsh 0.6 '$3 < t' --kernel linear --anchors 64
allpairs_meets_threshold euclidean 5.0 '$3 < 0 || $3 > t'

# allpairs validates its input as index does: a threshold outside the
# measure's domain, a non-numeric value, or a generator the measure does
# not support is one error line and exit 1.
for bad in "--threshold -0.5" "--threshold abc" "--threshold 1.5" \
           "--threshold 0.5 --seed xyz" "--threshold 0.5 --threads -1" \
           "--threshold 0.3 --epsilon 2" "--threshold 0.3 --delta 1"; do
  # shellcheck disable=SC2086  # $bad is a flag list.
  "$CLI" allpairs --input corpus.txt --measure jaccard $bad \
    >ap_bad.txt 2>err.txt
  check_rc "allpairs $bad" 1 $?
  check_one_error_line "allpairs $bad" err.txt
  [ -s ap_bad.txt ] && { echo "FAIL: allpairs $bad printed pairs" >&2; fails=$((fails + 1)); }
done
# ... and so is a BayesLSH epsilon, delta or gamma outside (0, 1).
for bad in "--epsilon 2" "--epsilon 0" "--gamma 1.5" "--delta 0" \
           "--delta nan"; do
  # shellcheck disable=SC2086  # $bad is a flag list.
  "$CLI" allpairs --input corpus.txt --tfidf --measure cosine \
    --generator lsh --threshold 0.7 $bad >ap_bad.txt 2>err.txt
  check_rc "cosine allpairs $bad" 1 $?
  check_one_error_line "cosine allpairs $bad" err.txt
  [ -s ap_bad.txt ] && { echo "FAIL: cosine allpairs $bad printed pairs" >&2; fails=$((fails + 1)); }
done
"$CLI" allpairs --input corpus.txt --measure wjaccard --threshold 0.5 \
  2>err.txt
check_rc "wjaccard with the allpairs generator" 1 $?
check_one_error_line "wjaccard with the allpairs generator" err.txt
"$CLI" index --input corpus.txt --output nope.idx --measure klsh \
  --kernel nope 2>/dev/null
check_rc "unknown kernel" 1 $?

# Euclidean's threshold is a distance radius with no meaningful default.
"$CLI" index --input corpus.txt --output nope.idx --measure euclidean \
  2>/dev/null
check_rc "euclidean without --threshold" 1 $?

# One lifecycle per measure over the raw count corpus (positive weights,
# as ICWS requires): index -> query, serial == batch, add -> query ->
# compact -> query identity, and sharded serve == the query oracle.
measure_lifecycle() { # measure threshold [extra index flags...]
  m="$1"; t="$2"; shift 2

  "$CLI" index --input corpus.txt --output "m_$m.idx" --measure "$m" \
    --threshold "$t" "$@" 2>/dev/null
  check_rc "$m index build" 0 $?

  "$CLI" query --index "m_$m.idx" --query-file corpus.txt --top-k 5 \
    --output "m_$m.q1.txt" 2>/dev/null
  check_rc "$m query" 0 $?
  [ -s "m_$m.q1.txt" ] || { echo "FAIL: $m query produced no matches" >&2; fails=$((fails + 1)); }

  "$CLI" query --index "m_$m.idx" --query-file corpus.txt --top-k 5 \
    --batch --threads 2 --output "m_$m.q2.txt" 2>/dev/null
  check_rc "$m batched query" 0 $?
  cmp -s "m_$m.q1.txt" "m_$m.q2.txt" || { echo "FAIL: $m --batch output differs from serial loop" >&2; fails=$((fails + 1)); }

  "$CLI" add --index "m_$m.idx" --input corpus.txt --output "m_$m.dyn" \
    2>/dev/null
  check_rc "$m add" 0 $?
  "$CLI" query --index "m_$m.dyn" --query-file corpus.txt --top-k 5 \
    --output "m_$m.q3.txt" 2>/dev/null
  check_rc "$m dynamic query" 0 $?
  "$CLI" compact --index "m_$m.dyn" 2>/dev/null
  check_rc "$m compact" 0 $?
  "$CLI" query --index "m_$m.dyn" --query-file corpus.txt --top-k 5 \
    --output "m_$m.q4.txt" 2>/dev/null
  check_rc "$m query after compact" 0 $?
  cmp -s "m_$m.q3.txt" "m_$m.q4.txt" || { echo "FAIL: $m compaction changed query results" >&2; fails=$((fails + 1)); }

  printf '@s query %s\nquit\n' "$row" | "$CLI" serve --index "m_$m.idx" \
    --shards 3 --top-k 5 >"m_$m.serve.txt" 2>/dev/null
  check_rc "$m sharded serve" 0 $?
  head -n1 "m_$m.serve.txt" | grep -qE '^matches [0-9]+ shards 3/3$' || { echo "FAIL: $m serve response header malformed or degraded" >&2; fails=$((fails + 1)); }
  n=$(head -n1 "m_$m.serve.txt" | awk '{print $2}')
  sed -n "2,$((n + 1))p" "m_$m.serve.txt" > "m_$m.serve_matches.txt"
  grep '^0 ' "m_$m.q1.txt" | cut -d' ' -f2- > "m_$m.oracle.txt"
  cmp -s "m_$m.serve_matches.txt" "m_$m.oracle.txt" || { echo "FAIL: $m sharded serve answers differ from the query oracle" >&2; fails=$((fails + 1)); }

  # The new measure tags need wire format v3: a v2 save fails closed.
  "$CLI" index --input corpus.txt --output "m_$m.v2.idx" --measure "$m" \
    --threshold "$t" --format-version 2 "$@" 2>err.txt
  check_rc "$m refuses --format-version 2" 2 $?
  check_one_error_line "$m refuses --format-version 2" err.txt
}

measure_lifecycle wjaccard 0.5
measure_lifecycle klsh 0.6 --kernel linear --anchors 64
measure_lifecycle euclidean 5.0

# Euclidean reports distances, not negated similarities.
awk '$3 < 0 { exit 1 }' m_euclidean.q1.txt || { echo "FAIL: euclidean query printed negative distances" >&2; fails=$((fails + 1)); }

# The serving threshold must lie in the index measure's domain: a
# similarity in (0, 1], or a radius > 0. query and serve refuse anything
# else with one error line, exit 1 and no matches; 0 is never taken as
# "serve at the build threshold".
check_error_text() { # description stderr_file [expected_line]
  [ -z "${3:-}" ] && return 0
  if [ "$(cat "$2")" != "$3" ]; then
    echo "FAIL: $1 printed '$(cat "$2")', expected '$3'" >&2
    fails=$((fails + 1))
  fi
}

threshold_refused() { # index threshold [expected_error_line]
  rm -f thr_q.txt
  "$CLI" query --index "$1" --query-file corpus.txt --threshold "$2" \
    --output thr_q.txt 2>err.txt
  check_rc "query on $1 at threshold $2" 1 $?
  check_one_error_line "query on $1 at threshold $2" err.txt
  check_error_text "query on $1 at threshold $2" err.txt "${3:-}"
  [ -s thr_q.txt ] && { echo "FAIL: query on $1 at threshold $2 wrote matches" >&2; fails=$((fails + 1)); }
  printf 'query %s\nquit\n' "$row" | "$CLI" serve --index "$1" \
    --threshold "$2" >thr_s.txt 2>err.txt
  check_rc "serve on $1 at threshold $2" 1 $?
  check_one_error_line "serve on $1 at threshold $2" err.txt
  check_error_text "serve on $1 at threshold $2" err.txt "${3:-}"
  [ -s thr_s.txt ] && { echo "FAIL: serve on $1 at threshold $2 wrote matches" >&2; fails=$((fails + 1)); }
}
for t in 0 -0.5 1.5; do threshold_refused corpus.idx "$t"; done
threshold_refused m_euclidean.idx 0
"$CLI" query --index m_euclidean.idx --query-file corpus.txt \
  --threshold 7.5 --output thr_q.txt 2>/dev/null
check_rc "euclidean query at radius 7.5" 0 $?
[ -s thr_q.txt ] || { echo "FAIL: euclidean query at radius 7.5 found no matches" >&2; fails=$((fails + 1)); }
printf 'query %s\nquit\n' "$row" | "$CLI" serve --index m_euclidean.idx \
  --threshold 7.5 >thr_s.txt 2>/dev/null
check_rc "euclidean serve at radius 7.5" 0 $?
head -n1 thr_s.txt | grep -qE '^matches [1-9][0-9]* shards 2/2$' || { echo "FAIL: euclidean serve at radius 7.5 answered no matches" >&2; fails=$((fails + 1)); }
# A dynamic index builds its segment searchers at load; a threshold
# outside the domain is still a usage error there, worded as for a plain
# index.
threshold_refused m_klsh.dyn 1.5 \
  'error: --threshold for a klsh index: threshold must be in (0, 1] (got 1.5)'

# The kernel flags reach the build: an rbf klsh index builds and serves.
"$CLI" index --input corpus.txt --output klsh_rbf.idx --measure klsh \
  --threshold 0.9 --kernel rbf --kernel-gamma 0.01 --anchors 16 2>/dev/null
check_rc "klsh rbf build" 0 $?
"$CLI" query --index klsh_rbf.idx --query-file corpus.txt --top-k 3 \
  --output klsh_rbf_q.txt 2>/dev/null
check_rc "klsh rbf query" 0 $?

# v2 -> v3 compat: an old measure written as v2 answers identically to
# the v3 build of the same configuration, and bad versions are refused.
"$CLI" index --input corpus.txt --output v2.idx --measure cosine \
  --threshold 0.6 --tfidf --normalize --format-version 2 2>/dev/null
check_rc "cosine v2 build" 0 $?
"$CLI" query --index v2.idx --query-file corpus.txt --normalize \
  --top-k 5 --output v2_q.txt 2>/dev/null
check_rc "query v2 index" 0 $?
cmp -s matches.txt v2_q.txt || { echo "FAIL: v2 index answers differ from the v3 build" >&2; fails=$((fails + 1)); }
"$CLI" index --input corpus.txt --output nope.idx --measure cosine \
  --format-version 7 2>/dev/null
check_rc "out-of-range --format-version" 1 $?

# Each subcommand refuses a flag it does not read, and a token that is no
# flag's value, with one error line naming it (a typo such as --theshold
# would otherwise run with the default).
refused() { # description expected_word args...
  desc="$1"; word="$2"; shift 2
  "$CLI" "$@" </dev/null >refused_out.txt 2>err.txt
  check_rc "$desc" 1 $?
  check_one_error_line "$desc" err.txt
  grep -qF -- "$word" err.txt || { echo "FAIL: $desc: the error does not name $word" >&2; fails=$((fails + 1)); }
  [ -s refused_out.txt ] && { echo "FAIL: $desc printed output" >&2; fails=$((fails + 1)); }
}
refused "allpairs unknown flag" --frobnicate \
  allpairs --input corpus.txt --threshold 0.7 --frobnicate 3
refused "allpairs stray token" stray allpairs --input corpus.txt \
  --threshold 0.7 stray --generator lsh --band-hashes 65
refused "allpairs index-only flag" --band-hashes allpairs \
  --input corpus.txt --threshold 0.7 --generator lsh --band-hashes 65
refused "switch followed by a stray token" stray allpairs \
  --input corpus.txt --tfidf stray --threshold 0.7
refused "query typo" --theshold query --index corpus.idx \
  --query-file corpus.txt --theshold 0.5
refused "index query-only flag" --top-k index --input corpus.txt \
  --output refused.idx --top-k 3
[ -e refused.idx ] && { echo "FAIL: a refused index command wrote a file" >&2; fails=$((fails + 1)); }
refused "serve write-only flag" --wal serve --index corpus.idx --wal w.log
# serve refuses a control value it would otherwise reinterpret (a negative
# time, rate or burst; zero breaker failures) or a bucket below one token,
# which would reject every query, before it loads the index, so the
# garbage index never gets to exit 2.
for bad in "--deadline-ms -5" "--shard-timeout-ms -1" "--breaker-open-ms -100" \
           "--drain-timeout-ms -3" "--rate -2" "--burst -4" "--burst 0.5" \
           "--breaker-failures 0" "--shards 0"; do
  # shellcheck disable=SC2086  # $bad is a flag and its value.
  refused "serve $bad" "${bad%% *}" serve --index garbage.idx $bad
done
refused "stats stray token" extra stats --input corpus.txt extra
# A value flag given no value (last, or followed by another flag) is
# refused, not read as a switch that runs with the default.
refused "value flag last" --threshold allpairs --input corpus.txt \
  --tfidf --threshold
refused "value flag before another flag" --output allpairs \
  --input corpus.txt --tfidf --threshold 0.7 --output

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI contract check(s) failed" >&2
  exit 1
fi
echo "all CLI index/query contract checks passed"
