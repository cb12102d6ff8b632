#!/usr/bin/env bash
# Single queries through the installed console script, on the README worked
# example and two edge cases: run from an empty directory.
set -euo pipefail
echo '{"kind": "pauli", "p": [0.8, 0.1, 0.06, 0.04]}' > channel.json
echo '{"bloch": [0.3, 0.2, -0.4]}' > state.json
qubit-retro invert --channel channel.json --state state.json --out . | tee invert.txt
# The files are named as pathlib renders --out: "." adds no prefix.
test "$(tail -n 1 invert.txt)" = 'wrote inverse.json and invert_report.json'
# Both files are json.dumps(doc, indent=2) plus a newline, and the
# report embeds inverse.json's document.
python - <<'PY'
import json
docs = {}
for name in ("inverse.json", "invert_report.json"):
    text = open(name, encoding="utf-8").read()
    docs[name] = json.loads(text)
    assert text == json.dumps(docs[name], indent=2) + "\n", name
assert docs["invert_report.json"]["inverse"] == docs["inverse.json"]
PY
qubit-retro verify --channel channel.json --state state.json --inverse inverse.json --out . | tee verify.txt
grep -qx 'verdict: symmetric' verify.txt
grep -qx 'wrote verify_report.json' verify.txt
for command in invert unscathed verify scan kraus three-entry; do
  qubit-retro "$command" --help > /dev/null
done
# A boundary channel: unscathed on the sigma_1 axis (exit 0), not at
# the README state (exit 2, "no inverse").
echo '{"kind": "pauli", "p": [0.6, 0.4, 0.0, 0.0]}' > boundary.json
echo '{"bloch": [0.5, 0, 0]}' > axis.json
qubit-retro unscathed --channel boundary.json --state axis.json
code=0; qubit-retro unscathed --channel boundary.json --state state.json || code=$?
test "$code" -eq 2
# The channel's own slack3 is -4.4e-16 here; the unscathed test
# decides a boundary verdict, so the report is feasible at any tol.
echo '{"kind": "pauli", "p": [0.25241805539539025, 0.0, 0.7475819446046097, 0.0]}' > edge.json
echo '{"bloch": [0, 0, 0]}' > center.json
qubit-retro invert --channel edge.json --state center.json --tol 1e-16 --out edge | tee edge.txt
test "$(tail -n 1 edge.txt)" = 'wrote edge/inverse.json and edge/invert_report.json'
python -c 'import json; r = json.load(open("edge/invert_report.json"))["report"]; assert r["feasible"] is True and r["v"] == [0, 0, 0], r'
qubit-retro kraus --channel channel.json --out .
python -c 'import json; d = json.load(open("kraus.json")); assert len(d["ops"]) == 4, d'
# verify's and kraus's files are json.dumps(doc, indent=2) plus a newline too.
python - <<'PY'
import json
for name in ("verify_report.json", "kraus.json"):
    text = open(name, encoding="utf-8", newline="").read()
    assert text == json.dumps(json.loads(text), indent=2) + "\n", name
PY
# A prior of length 1 + 1e-12 is clamped to the unit sphere where it
# enters, so a rotated channel decides it (exit 0 or 2). Kept as given, the
# frame rotation took it past the allowance and the query exited 1.
echo '{"kind": "ptm", "m": [1, 0, 0, 0, 0, 0.385174935082, -0.270903940924, 0.109521213699, 0, 0.259498836452, 0.151886914407, -0.280471707115, 0, 0.044241209482, 0.250916135593, 0.17962899774]}' > rotated.json
echo '{"bloch": [0.8000000000008001, 0.6000000000006, 0]}' > long.json
code=0; qubit-retro invert --channel rotated.json --state long.json --out rotated || code=$?
test "$code" -eq 0 -o "$code" -eq 2
# Usage errors exit 1, since exit 2 means "no inverse".
code=0; qubit-retro invert --channel channel.json --state state.json --tol 0 || code=$?
test "$code" -eq 1
code=0; qubit-retro fly || code=$?
test "$code" -eq 1
