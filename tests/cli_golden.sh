#!/usr/bin/env bash
# Golden-output test for the command-line tools.  Runs one small
# fixed-seed case of rcb_sim or rcb_sweep and compares its stdout byte for
# byte with tests/cli_golden/<case>.out; a reject_* case must instead exit
# 1 with empty stdout, and with `want_err` in its stderr when the case sets
# it.  Each case is its own ctest and works in its own temp dir, so the
# cases run safely under ctest -j.
#
#   tests/cli_golden.sh <case> <tools bin dir> <golden dir>          # compare
#   tests/cli_golden.sh <case> <tools bin dir> <golden dir> print    # stdout
set -euo pipefail

name=$1 bin=$2 golden=$3 mode=${4:-compare}
sim="$bin/rcb_sim"
sweep="$bin/rcb_sweep"
work=$(mktemp -d "${TMPDIR:-/tmp}/rcb_cli_golden.XXXXXX")
trap 'rm -rf "$work"' EXIT

# A broadcast point small enough to run in well under a second.
bcast=(--protocol=broadcast --adversary=suffix --n=16 --q=0.9 --budget=4096
       --trials=6 --seed=11 --threads=2)
duel=(--protocol=one_to_one --adversary=full_duel --q=0.6 --threads=2)

run_case() {
  case "$name" in
    sim_table) "$sim" "${bcast[@]}" ;;
    sim_json) "$sim" "${bcast[@]}" --format=json ;;
    sim_csv) "$sim" "${bcast[@]}" --format=csv ;;
    sim_histogram)
      "$sim" "${duel[@]}" --budget=4096 --trials=24 --seed=3 --histogram ;;
    sim_battery_faults)
      "$sim" "${bcast[@]}" --battery=600 --fault_seed=7 --crash_rate=0.001 \
        --restart_rate=0.01 --crash_fraction=0.2 --loss=0.05 \
        --corruption=0.02 --skew=0.01 --brownout_slot=2000 \
        --brownout_fraction=0.25 --brownout_factor=0.5 ;;
    sim_config)
      # The file sets the scenario; the command line overrides its trials.
      "$sim" --config="$golden/sim_config.json" --trials=5 --threads=2 ;;
    sim_checkpoint_resume)
      "$sim" "${bcast[@]}" --format=json --checkpoint_dir="$work/ck"
      "$sim" --resume="$work/ck" --format=json --threads=2 ;;
    sweep_csv_fit)
      "$sweep" "${bcast[@]}" --sweep=budget --values=1024,4096,16384 ;;
    sweep_table)
      "$sweep" "${bcast[@]}" --sweep=budget --values=1024,4096,16384 \
        --metric=mean_cost --format=table ;;
    sweep_channels_digests)
      "$sweep" --protocol=mc_broadcast --adversary=mc_uniform --n=16 \
        --rate=0.5 --budget=4096 --trials=6 --seed=2 --threads=2 \
        --sweep=channels --values=1,2 --print_digests ;;
    sweep_checkpoint_digests)
      "$sweep" "${duel[@]}" --sweep=eps --values=0.1,0.01 --trials=40 \
        --seed=7 --fit=none --print_digests --checkpoint_dir="$work/ck" ;;
    # Unknown choice values, and swept values the scalar flag refuses.
    reject_sim_format) "$sim" "${bcast[@]}" --format=yaml ;;
    reject_sim_battery_negative) "$sim" "${bcast[@]}" --battery=-1 ;;
    reject_sim_brownout_negative) "$sim" "${bcast[@]}" --brownout_slot=-7 ;;
    reject_sim_config_format)
      echo '{"format": "yaml"}' >"$work/config.json"
      "$sim" --config="$work/config.json" ;;
    reject_sweep_metric)
      "$sweep" "${bcast[@]}" --sweep=budget --values=1024,4096 \
        --metric=success_rate ;;
    reject_sweep_fit) "$sweep" "${bcast[@]}" --fit=linear ;;
    reject_sweep_format) "$sweep" "${bcast[@]}" --format=json ;;
    reject_sweep_flag) "$sweep" "${bcast[@]}" --sweep=seed --values=1,2 ;;
    reject_sweep_n_fraction)
      "$sweep" "${bcast[@]}" --sweep=n --values=8,4.7 ;;
    reject_sweep_budget_negative)
      "$sweep" "${bcast[@]}" --sweep=budget --values=1024,-1 ;;
    reject_sweep_budget_huge)
      "$sweep" "${bcast[@]}" --sweep=budget --values=1024,1e30 ;;
    # A file that opens but cannot be read is named as such, not parsed as
    # empty input.
    reject_sim_config_dir)
      want_err="cannot read config file '$work': "
      "$sim" --config="$work" ;;
    reject_replay_record_dir)
      want_err="cannot read record file '$work': "
      "$bin/rcb_replay" --record="$work" ;;
    *) echo "unknown case '$name'" >&2; return 2 ;;
  esac
}

rc=0
want_err=""
run_case >"$work/stdout" 2>"$work/stderr" || rc=$?
cat "$work/stderr" >&2
if [[ "$mode" == print ]]; then
  cat "$work/stdout"
  exit "$rc"
fi
if [[ "$name" == reject_* ]]; then
  if [[ "$rc" -ne 1 || -s "$work/stdout" ]]; then
    echo "case $name: exit $rc with $(wc -c <"$work/stdout") bytes of" \
      "stdout, want exit 1 and none" >&2
    exit 1
  fi
  if [[ -n "$want_err" ]] && ! grep -qF -- "$want_err" "$work/stderr"; then
    echo "case $name: stderr does not contain \"$want_err\"" >&2
    exit 1
  fi
  exit 0
fi
if [[ "$rc" -ne 0 ]]; then
  echo "case $name exited $rc" >&2
  exit 1
fi
if ! cmp -s "$work/stdout" "$golden/$name.out"; then
  echo "case $name: stdout differs from $golden/$name.out" >&2
  diff "$golden/$name.out" "$work/stdout" >&2 || true
  exit 1
fi
