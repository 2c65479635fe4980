#!/usr/bin/env bash
# The experiment ledger: runs five of the paper's experiment bins with
# `--json` and writes their tables, under a header naming the commit, the
# machine and the run parameters, to BENCH_<pr>.json at the repo root.
#
#   scripts/ledger.sh <pr>               # write BENCH_<pr>.json
#   scripts/ledger.sh --check <ledger>   # run the same bins, then compare
#                                        # the deterministic columns with
#                                        # <ledger>'s; exit 1 on a difference
#
# Deterministic columns: `|δ| (paper)`, `|δ| (scaled)`, `|AFF|/update`,
# `|AFF1| crossing/update` and `agree` of the Fig. 6(i)–(k) tables; `|V|`, `deletions`, `|C|` and
# `|AFF1|` of the `exp_oracle_scale` topology table. Time columns are
# recorded, never compared. The environment reaches the bins unchanged
# (`GPM_THREADS`, `GPM_ASSERT_BUILD_MS`); the oracle is pinned to the
# matrix and the seed to 2010.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    echo "usage: scripts/ledger.sh <pr> | scripts/ledger.sh --check <ledger>" >&2
    exit 2
}
seed=2010
case "${1:-}" in
    --check)
        [[ $# -eq 2 ]] || usage
        committed="$2"
        [[ -f "$committed" ]] || { echo "no ledger at $committed" >&2; exit 2; }
        pr="check"
        ;;
    '' | -*) usage ;;
    *)
        [[ $# -eq 1 ]] || usage
        committed=""
        pr="$1"
        ;;
esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" -p gpm-bench --bins
bin="${CARGO_TARGET_DIR:-$root/target}/release"

# One line per run: the bin, then its arguments after the common ones.
runs=(
    "exp_fig6i_batch_updates --scale 0.05 --patterns 2 --oracle matrix"
    "exp_fig6j_deletions --scale 0.05 --patterns 2 --oracle matrix"
    "exp_fig6k_insertions --scale 0.05 --patterns 2 --oracle matrix"
    "exp_fig6fgh_scalability --scale 0.05 --patterns 2 --oracle matrix"
    "exp_oracle_scale --scale 0.01"
)
for run in "${runs[@]}"; do
    read -r name args <<<"$run"
    echo "::group::$name $args"
    # shellcheck disable=SC2086 # `args` is a flag list
    "$bin/$name" --seed "$seed" --json "$tmp/$name.jsonl" $args
    echo "$name --seed $seed $args" >"$tmp/$name.cmd"
    echo "::endgroup::"
done

out="${committed:+$tmp/ledger.json}"
out="${out:-$root/BENCH_$pr.json}"
commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
nproc="$(nproc)"
threads="${GPM_THREADS:-$nproc}"

python3 - "$tmp" "$out" "$pr" "$commit" "${cpu:-unknown}" "$nproc" "$seed" "$threads" "${runs[@]}" <<'PY'
import json, sys
tmp, out, pr, commit, cpu, nproc, seed, threads, *runs = sys.argv[1:]
header = {
    "pr": pr, "commit": commit, "cpu": cpu, "nproc": int(nproc),
    "seed": int(seed), "threads": int(threads),
}
tables = []
for run in runs:
    name = run.split()[0]
    command = open(f"{tmp}/{name}.cmd").read().strip()
    with open(f"{tmp}/{name}.jsonl") as f:
        written = [json.loads(line) for line in f]
    assert written, f"{name} wrote no table"
    for table in written:
        assert sorted(table) == ["headers", "rows", "title"], f"{name}: {sorted(table)}"
        width = len(table["headers"])
        assert all(len(row) == width for row in table["rows"]), f"{name}: a row is not {width} wide"
        tables.append({"bin": name, "command": command, **table})
# One table to a line, so a ledger diffs row-set by row-set.
body = ",\n  ".join(json.dumps(t, ensure_ascii=False) for t in tables)
with open(out, "w") as f:
    f.write(f'{{\n "header": {json.dumps(header, ensure_ascii=False)},\n'
            f' "tables": [\n  {body}\n ]\n}}\n')
print(f"ledger: {len(tables)} tables -> {out}")
PY

[[ -n "$committed" ]] || exit 0
python3 - "$committed" "$out" <<'PY'
import json, sys
FIG6 = ["|δ| (paper)", "|δ| (scaled)", "|AFF|/update", "|AFF1| crossing/update", "agree"]
# (bin, title prefix, deterministic columns)
CHECKED = [
    ("exp_fig6i_batch_updates", "Fig. 6(i)", FIG6),
    ("exp_fig6j_deletions", "Fig. 6(j)", FIG6),
    ("exp_fig6k_insertions", "Fig. 6(k)", FIG6),
    ("exp_oracle_scale", "exp_oracle_scale: in-place 2-hop deletion repair",
     ["|V|", "deletions", "|C|", "|AFF1|"]),
]
def find(ledger, name, prefix):
    hits = [t for t in ledger["tables"]
            if t["bin"] == name and t["title"].startswith(prefix)]
    if len(hits) != 1:
        sys.exit(f"{name}: {len(hits)} tables titled {prefix!r}, expected 1")
    return hits[0]
old, new = (json.load(open(path)) for path in sys.argv[1:])
diffs = 0
for name, prefix, columns in CHECKED:
    a, b = find(old, name, prefix), find(new, name, prefix)
    if len(a["rows"]) != len(b["rows"]):
        print(f"{name}: {len(a['rows'])} rows in the ledger, {len(b['rows'])} now")
        diffs += 1
        continue
    for column in columns:
        ia, ib = a["headers"].index(column), b["headers"].index(column)
        for r, (ra, rb) in enumerate(zip(a["rows"], b["rows"])):
            if ra[ia] != rb[ib]:
                print(f"{name} row {r} `{column}`: ledger {ra[ia]}, now {rb[ib]}")
                diffs += 1
    print(f"{name}: {len(a['rows'])} rows x {len(columns)} deterministic columns compared")
if diffs:
    sys.exit(f"{diffs} deterministic cell(s) differ from {sys.argv[1]}")
print(f"deterministic columns equal {sys.argv[1]}")
PY
