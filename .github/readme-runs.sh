#!/usr/bin/env bash
# The README's command-line runs and the checks on what they write, with
# `pottsinvest` taken from PATH.  Every file goes into DIR (made if absent)
# under a relative name, so two runs, say under two BLAS kernels, compare
# with `diff -r`.  Any failed run or check ends the script non-zero.
#
#   bash .github/readme-runs.sh DIR
set -e
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
mkdir -p "$1"
cd "$1"

# README.md's "## Command line" block, run as written: curve, top, ens,
# cmp and cmp-q5.
python -c 'import re, sys; sys.stdout.write(re.search(r"## Command line\n+```sh\n(.*?)```", open(sys.argv[1]).read(), re.S).group(1))' "$readme" > readme-commands.sh
. ./readme-commands.sh

# A rerun writes the same bytes.
ens15="--q 15 --profile random --seeds 1,2,3,4,5,6,7,8,9,10,11,12"
pottsinvest $ens15 --out ens2.csv
cmp ens.csv ens2.csv
# Seed 5's rows are the same bytes swept alone as among twelve seeds.
pottsinvest --q 15 --profile random --seeds 5 --out ens5.csv
grep ',5$' ens.csv > seed5-of-12.csv
grep ',5$' ens5.csv > seed5-alone.csv
cmp seed5-of-12.csv seed5-alone.csv
pottsinvest --q 60 --profile random --seeds 1,2,3,4 --out ens60.csv
pottsinvest --q 60 --profile random --seeds 1,2,3,4 --out ens60b.csv
cmp ens60.csv ens60b.csv
# The README's q = 200 log grid: from beta of about 3.5 on, -beta J_min
# passes 709, where the zero-bias gaps take a clamped scale.
grid200="--q 200 --profile conservative --log-grid --beta-min 0.01 --beta-max 1000 --beta-count 100"
pottsinvest $grid200 --out grid200.csv
pottsinvest $grid200 --out grid200b.csv
cmp grid200.csv grid200b.csv

# An ensemble member's rows are the bytes of the single curve swept on its
# couplings over the same grid flags: seed 5 of the q = 15 run, seed 3 of
# the q = 60 run, and seed 1 at q = 3, couplings (1, 2, 2), at
# beta = 1e308, where -beta J(a) of two levels is below the double range
# and both runs exit 0.
member_is_single_curve() {
  file=$1 q=$2 seed=$3; shift 3
  couplings=$(python -c 'import sys; from pottsinvest import ProfileSpec, make_profile; print(",".join(map(repr, make_profile(ProfileSpec("random", int(sys.argv[1]), int(sys.argv[2]))).values)))' "$q" "$seed")
  pottsinvest --q "$q" --couplings="$couplings" "$@" --out "single-$q-$seed.csv"
  tail -n +2 "single-$q-$seed.csv" > "single-$q-$seed-rows.csv"
  grep ",$seed\$" "$file" | cut -d, -f1,2 > "member-$q-$seed-rows.csv"
  cmp "member-$q-$seed-rows.csv" "single-$q-$seed-rows.csv"
}
member_is_single_curve ens.csv 15 5
member_is_single_curve ens60.csv 60 3
pottsinvest --q 3 --profile random --seeds 1 --beta-max 1e308 --beta-count 2 --out ens3.csv
member_is_single_curve ens3.csv 3 1 --beta-max 1e308 --beta-count 2

# --emit-limits only appends its footer to the same data rows.
pottsinvest $ens15 --emit-limits --out ens-limits.csv
grep -v '^#' ens-limits.csv > ens-limits-rows.csv
cmp ens-limits-rows.csv ens.csv

# The README's values, not only its exit codes: the exact endpoint footer,
# and every closed-form comparison (cmp*.csv) within 1e-9.
grep -qxF '# investment_at_beta_infinity = 2.0 (unique coupling minimum at level 2)' top.csv
for c in 0,0,1 0,2,0 -1,0,0; do
  pottsinvest --q 3 --couplings="$c" --compare --beta-min 0.01 --out "cmp-$c.csv"
done
# Equal couplings past beta |J| = 745, where exp(-beta |J|) underflows.
pottsinvest --q 2 --couplings=-1,-1 --compare --beta-min 700 --beta-max 800 --beta-count 3 --out cmp-tie.csv
python -c '
import sys
errors = {f: float([l for l in open(f) if l.startswith("# max_abs_error = ")][0].split("=")[1]) for f in sys.argv[1:]}
print(errors)
sys.exit(0 if len(errors) == 6 and max(errors.values()) <= 1e-9 else 1)' cmp*.csv

# The README's run.cfg writes the same bytes as the flags it spells.
printf '# run.cfg\nq = 10\nprofile = aggressive\nbeta_count = 101\nout = cfg.csv\n' > run.cfg
pottsinvest --config run.cfg
pottsinvest --q 10 --profile aggressive --beta-count 101 --out flag.csv
cmp cfg.csv flag.csv
# A grid whose points round to equal values is a configuration error.
rc=0; pottsinvest --q 2 --couplings 1,1 --beta-min 1 --beta-max 1.0000000000000002 --beta-count 5 || rc=$?; test "$rc" -eq 2
