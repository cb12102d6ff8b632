#!/usr/bin/env bash
# The three-entry search through the installed console script: run from an
# empty directory.
set -euo pipefail
# Only the maximally mixed prior is feasible.
qubit-retro three-entry --resolution 5 --seed 0 --out .
python -c 'import json; s = json.load(open("three-entry_5.json")); assert (s["channels"], s["mu_feasible"], s["hits_confirmed"], s["queries"]) == (24, 24, 0, 24000), s'
# The benchmark's size: 84 channels, scored in ten blocks of eight
# channels and a short last block of four.
qubit-retro three-entry --resolution 8 --seed 0 --out r8
python -c 'import json; s = json.load(open("r8/three-entry_8.json")); assert (s["channels"], s["mu_feasible"], s["hits_confirmed"], s["queries"]) == (84, 84, 0, 84000), s'
# At a loose tolerance the search still exits 0: a hit that fails its
# certification counts as not confirmed.
qubit-retro three-entry --resolution 5 --seed 0 --tol 0.05 --out loose
python -c 'import json; s = json.load(open("loose/three-entry_5.json")); assert s["hits"] >= s["hits_confirmed"], s'
