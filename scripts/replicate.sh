#!/usr/bin/env bash
# Rerun the bundled simulation studies end to end.
#
# Writes everything under results/ (created if missing). All runs use the
# default seed 42, so repeated invocations are byte-identical. The graph2
# epsilon pairs are documented reconstructions; the source material does not
# list the exact panel values. The eps sweep runs in both orientations
# because the two descriptions of that figure disagree about which budget is
# held fixed. Runs from a plain checkout; an installed package works as well.

set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
gap_gauge() { python3 -m gap_gauge "$@"; }

for gamma in 005 010 020; do
    gap_gauge simulate "configs/graphA_gamma${gamma}.json" \
        --out "results/graphA_gamma${gamma}"
done
gap_gauge simulate configs/graphA_classifier.json --out results/graphA_classifier

for eps in 010 020 040; do
    gap_gauge simulate "configs/graph2_eps${eps}.json" \
        --out "results/graph2_eps${eps}"
done

gap_gauge sweep configs/graph3_base.json --varied eps_b1 --grid 0:1:0.1 \
    --trials 20000 --out results/graph3_vary_eps_b1.csv
gap_gauge sweep configs/graph3_base.json --varied eps_b2 --grid 0:1:0.1 \
    --trials 20000 --out results/graph3_vary_eps_b2.csv

echo "done; see results/"
