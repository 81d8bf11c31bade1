#!/bin/sh
# A/B run of the repository benchmark: the working tree against a parent
# revision, on one workload.
#
#   sh bench/perf-ab.sh PARENT WORKLOAD [PAIRS [SEEDS]]
#   make perf-ab PARENT=<rev> WORKLOAD=<name> PAIRS=10 SEEDS=5
#
# PARENT is checked out into a temporary git worktree (under $TMPDIR,
# removed on exit); a PARENT that is a directory is taken as a checkout
# of the parent and used in place. Pair k runs `perfbench/run.sh --seed
# k --trace 0` once on each side, for the run_seconds BENCHMARK.json
# fixes; odd pairs run the parent first, even pairs the working tree
# first. For every end-to-end metric BENCHMARK.json declares, the
# summary gives each side's median and quartiles, the pairs the working
# tree wins (ties count for neither side), and whether that is a gain by
# the rule the benchmark uses: wins in at least nine tenths of the
# pairs, and medians further apart than the parent's interquartile
# range. Last, `--trace 1` runs of seeds 1 to SEEDS (default 5) on each
# side, alternating which side runs first. Each prints its step-2
# fault-simulation and step-3 shares of the flow time (on serve-mix also
# the median cache-hit latency and the p99 latency over all requests)
# and whether it passed: a traced run that breaks the workload's
# phase-share guard reads correct=0. A summary gives each side's minimum
# and median share of the phase the workload stresses (step-2 fsim on
# fsim-tail, step 3 on atpg-chains; serve-mix has no guard), the maximum
# share of the phase whose ceiling the workload guards too (step 3 on
# fsim-tail, step-2 fsim on atpg-chains), and its count of correct
# traced runs.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: sh bench/perf-ab.sh PARENT WORKLOAD [PAIRS [SEEDS]]" >&2
  exit 2
fi
parent=$1
workload=$2
pairs=${3:-10}
seeds=${4:-5}
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
if [ -d "$parent" ]; then
  parent_dir=$(cd "$parent" && pwd)
  rev=$(git -C "$parent_dir" rev-parse --short HEAD)
  trap 'rm -rf "$tmp"' EXIT
else
  parent_dir=$tmp/parent
  rev=$(git -C "$root" rev-parse --short "$parent")
  cleanup() {
    git -C "$root" worktree remove --force "$parent_dir" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
  }
  trap cleanup EXIT
  git -C "$root" worktree add --detach --quiet "$parent_dir" "$parent"
fi
trap 'exit 130' INT TERM

# "name better" for each end-to-end metric (the entries carrying a bound).
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound".*/\1 \2/p' \
  "$root/BENCHMARK.json" > "$tmp/metrics"

# run SIDE DIR PAIR: one benchmark run, appended to $tmp/results as
# "pair side metric value" lines plus a "pair side correct 0|1" line.
run() {
  line=$(cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || line=
  case $line in
    *'"correct":true'*) ok=1 ;;
    *) ok=0 ;;
  esac
  echo "$3 $1 correct $ok" >> "$tmp/results"
  while read -r name _; do
    v=$(printf '%s\n' "$line" |
      sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")
    if [ -n "$v" ]; then echo "$3 $1 $name $v" >> "$tmp/results"; fi
  done < "$tmp/metrics"
  echo "perf-ab: pair $3 $1 correct=$ok" \
    "$(grep "^$3 $1 " "$tmp/results" | grep -v correct |
      awk '{printf "%s=%s ", $3, $4}')" >&2
}

: > "$tmp/results"
k=1
while [ "$k" -le "$pairs" ]; do
  if [ $((k % 2)) -eq 1 ]; then
    run parent "$parent_dir" "$k"
    run change "$root" "$k"
  else
    run change "$root" "$k"
    run parent "$parent_dir" "$k"
  fi
  k=$((k + 1))
done

echo "perf-ab: $workload, $pairs pairs of ${seconds}s runs," \
  "parent $rev vs working tree"
awk -v pairs="$pairs" '
  FNR == NR { better[$1] = $2; order[++nm] = $1; next }
  $3 == "correct" { ok[$2] += $4; next }
  { v[$3, $2, $1] = $4; n[$3, $2]++; vals[$3, $2] = vals[$3, $2] " " $4 }
  # Quantile q of the sorted values a[1..m], linear interpolation.
  function quant(a, m, q,   h, lo) {
    h = (m - 1) * q + 1; lo = int(h)
    return lo >= m ? a[m] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function stats(key, out,   a, m, i, j, t) {
    m = split(substr(vals[key], 2), a, " ")
    for (i = 2; i <= m; i++)
      for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) {
        t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
      }
    out["med"] = quant(a, m, 0.5)
    out["q1"] = quant(a, m, 0.25)
    out["q3"] = quant(a, m, 0.75)
  }
  END {
    printf "%-20s %-6s %-30s %-30s %-6s %-9s %s\n", "metric", "better",
      "parent median [q1, q3]", "change median [q1, q3]", "wins",
      "delta", "gain"
    for (i = 1; i <= nm; i++) {
      m = order[i]
      if (n[m, "parent"] == 0 || n[m, "change"] == 0) continue
      stats(m SUBSEP "parent", p); stats(m SUBSEP "change", c)
      wins = 0
      for (k = 1; k <= pairs; k++) {
        if (!((m, "parent", k) in v) || !((m, "change", k) in v)) continue
        a = v[m, "parent", k] + 0; b = v[m, "change", k] + 0
        if ((better[m] == "lower" && b < a) || (better[m] == "higher" && b > a))
          wins++
      }
      delta = p["med"] == 0 ? 0 : 100 * (c["med"] - p["med"]) / p["med"]
      diff = c["med"] - p["med"]; if (diff < 0) diff = -diff
      gain = (wins >= 0.9 * pairs && diff > p["q3"] - p["q1"]) ? "yes" : "no"
      printf "%-20s %-6s %-30s %-30s %-6s %-9s %s\n", m, better[m],
        sprintf("%.4g [%.4g, %.4g]", p["med"], p["q1"], p["q3"]),
        sprintf("%.4g [%.4g, %.4g]", c["med"], c["q1"], c["q3"]),
        wins "/" pairs, sprintf("%+.1f%%", delta), gain
    }
    printf "correct: parent %d/%d, change %d/%d\n", ok["parent"], pairs,
      ok["change"], pairs
  }
' "$tmp/metrics" "$tmp/results"

# traced SIDE DIR SEED: the phase shares and the verdict of one traced
# run, printed and appended to $tmp/traced as "side correct [share]".
traced() {
  line=$(cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 1 2>/dev/null | tail -n 1) || line=
  case $line in
    *'"correct":true'*) ok=1 ;;
    *) ok=0 ;;
  esac
  serve=
  if [ "$workload" = serve-mix ]; then
    serve=" serve.hit_p50_ms=$(num "$line" serve.hit_p50_ms %.2f)"
    serve="$serve serve.latency_p99_ms=$(num "$line" serve.latency_p99_ms)"
  fi
  echo "traced seed $3 $1" \
    "step2-fsim_pct=$(num "$line" flow.step2-fsim_pct)" \
    "step3_pct=$(num "$line" flow.step3_pct)$serve correct=$ok"
  echo "$1 $ok $(num "$line" "$stressed" %.4f) $(num "$line" "$other" %.4f)" \
    >> "$tmp/traced"
}
# num LINE NAME [FORMAT]: metric NAME of a result line, printed with
# FORMAT (default one decimal).
num() {
  printf '%s\n' "$1" |
    sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" |
    awk -v f="${3:-%.1f}" '{ printf f, $1 }'
}
case $workload in
  fsim-tail) stressed=flow.step2-fsim_pct other=flow.step3_pct ;;
  atpg-chains) stressed=flow.step3_pct other=flow.step2-fsim_pct ;;
  *) stressed= other= ;;
esac
: > "$tmp/traced"
k=1
while [ "$k" -le "$seeds" ]; do
  if [ $((k % 2)) -eq 1 ]; then
    traced parent "$parent_dir" "$k"
    traced change "$root" "$k"
  else
    traced change "$root" "$k"
    traced parent "$parent_dir" "$k"
  fi
  k=$((k + 1))
done
awk -v seeds="$seeds" -v stressed="${stressed#flow.}" -v other="${other#flow.}" '
  { n[$1]++; ok[$1] += $2; if ($3 != "") v[$1, n[$1]] = $3
    if ($4 != "") w[$1, n[$1]] = $4 }
  END {
    for (s = 1; s <= 2; s++) {
      side = s == 1 ? "parent" : "change"
      m = 0; top = ""
      for (i = 1; i <= n[side]; i++) {
        if ((side, i) in v) a[++m] = v[side, i] + 0
        if ((side, i) in w && (top == "" || w[side, i] + 0 > top)) top = w[side, i] + 0
      }
      for (i = 2; i <= m; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
          t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
        }
      share = ""
      if (stressed != "" && m > 0) {
        med = m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
        share = sprintf(" %s min %.1f median %.1f,", stressed, a[1], med)
      }
      if (other != "" && top != "") share = share sprintf(" %s max %.1f,", other, top)
      printf "traced %s:%s correct %d/%d\n", side, share, ok[side], seeds
    }
  }
' "$tmp/traced"
