#!/bin/sh
# chaind stdio smoke: verdict and cache counters over the framed
# stdin/stdout protocol, byte-identity across --jobs with the cache off,
# warm-store byte-identity, admission pacing on a 20,001-line pipe, and
# the SIGPIPE and SIGTERM exits.
#
# Usage: ci/serve.sh CHAOSCHECK
set -eu
cc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
here=$(cd "$(dirname "$0")" && pwd)
s=$(mktemp -d)
trap 'rm -rf "$s"' EXIT

# Two identical scenario checks plus a stats probe: the verdict, one miss
# and one cache hit.
"$cc" serve --scale 0.002 --jobs 2 \
  < "$here/serve_requests.ndjson" > "$s/cold.out" 2>/dev/null
grep -q '"compliant":false' "$s/cold.out"
grep -q '"ordered":false' "$s/cold.out"
grep -q '"hits":1' "$s/cold.out"
grep -q '"misses":1' "$s/cold.out"
grep -q '"rejects":0' "$s/cold.out"

# Concurrent path building leaves no trace in the replies: every lab
# scenario under the union store and each root program, AIA on and off,
# served uncached at --jobs 1 and at --jobs 3 (checks computed on three
# Domains at once), gives the same bytes.
"$cc" scenario --list > "$s/names"
n=0
while IFS= read -r name; do
  for store in union mozilla chrome microsoft apple; do
    for aia in true false; do
      n=$((n + 1))
      printf '{"id":"j%d","op":"check","scenario":"%s","store":"%s","aia":%s}\n' \
        "$n" "$name" "$store" "$aia"
    done
  done
done < "$s/names" > "$s/jobs.ndjson"
[ "$n" -ge 400 ]
"$cc" serve --scale 0.002 --cache 0 --jobs 1 \
  < "$s/jobs.ndjson" > "$s/jobs1.out" 2>/dev/null
"$cc" serve --scale 0.002 --cache 0 --jobs 3 \
  < "$s/jobs.ndjson" > "$s/jobs3.out" 2>/dev/null
[ "$(grep -c '"ok":true,"verdict"' "$s/jobs1.out")" -eq "$n" ]
cmp "$s/jobs1.out" "$s/jobs3.out"

# A chaind warmed from a chainstore corpus serves byte-identical check
# replies, and the warm fill shows up as cache hits.
"$cc" scan --scale 0.002 --jobs 2 --store "$s/store" > /dev/null 2>&1
"$cc" serve --scale 0.002 --jobs 2 --warm-store "$s/store" \
  < "$here/serve_requests.ndjson" > "$s/warm.out" 2>/dev/null
head -2 "$s/warm.out" > "$s/warm2.out"
head -2 "$s/cold.out" | cmp - "$s/warm2.out"
grep -q '"hits":2' "$s/warm.out"
grep -q '"warmed":' "$s/warm.out"

# --queue paces reading instead of rejecting: 20,000 checks and a stats
# probe piped in at the default --queue 64 draw no "overloaded" reply, and
# the last line is the stats reply counting every check.
awk -v check='{"op":"check","scenario":"reversed"}' \
  'BEGIN { for (i = 0; i < 20000; i++) print check; print "{\"op\":\"stats\"}" }' \
  > "$s/20k.ndjson"
cat "$s/20k.ndjson" | "$cc" serve --scale 0.002 --jobs 1 \
  > "$s/20k.out" 2>/dev/null
[ "$(grep -c '"code":"overloaded"' "$s/20k.out")" -eq 0 ]
tail -n 1 "$s/20k.out" | grep -q '"stats":{"requests":20001,"checks":20000,'

# A reader that leaves early ends chaind cleanly: exit 0 and the metrics
# summary, not death by SIGPIPE (141).
{
  "$cc" serve --scale 0.002 --jobs 1 < "$s/20k.ndjson" 2> "$s/pipe.err"
  echo $? > "$s/pipe.status"
} | head -n 1 > /dev/null
[ "$(cat "$s/pipe.status")" -eq 0 ]
grep -q '^chaind: ' "$s/pipe.err"

# SIGTERM mid-stream drains like netd: the frames already read are
# answered, then exit 0 with the summary (not 143).
mkfifo "$s/in"
"$cc" serve --scale 0.002 --jobs 1 < "$s/in" > "$s/term.out" 2> "$s/term.err" &
srv=$!
exec 3> "$s/in"
head -n 2 "$here/serve_requests.ndjson" >&3
i=0
while [ $i -lt 300 ]; do
  [ "$(wc -l < "$s/term.out")" -ge 2 ] && break
  sleep 0.1
  i=$((i + 1))
done
kill -TERM "$srv"
status=0
wait "$srv" || status=$?
exec 3>&-
[ "$status" -eq 0 ]
[ "$(wc -l < "$s/term.out")" -eq 2 ]
grep -q '^chaind: 2 requests' "$s/term.err"
