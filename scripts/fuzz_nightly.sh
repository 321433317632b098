#!/usr/bin/env bash
# Nightly fuzzing driver: extend the long-running campaign, then gate on
# the committed corpus.
#
# The campaign state (manifest.json + artifacts) lives in $CORPUS_DIR and
# is meant to be restored from the previous nightly run's CI artifact, so
# the iteration space advances across nights instead of re-fuzzing the
# same prefix: `hcs_fuzz resume` picks up exactly where the manifest says
# the last run stopped. A fresh directory falls back to `hcs_fuzz run`.
#
# Exit code is non-zero when the campaign found new failures OR any
# committed corpus artifact stopped reproducing (regression gate).
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
CORPUS_DIR="${CORPUS_DIR:-fuzz-corpus}"
ITERATIONS="${ITERATIONS:-2000}"
SEED="${SEED:-1}"
HCS_FUZZ="${BUILD_DIR}/src/fuzz/hcs_fuzz"

if [[ ! -x "${HCS_FUZZ}" ]]; then
  echo "fuzz_nightly: ${HCS_FUZZ} not built" >&2
  exit 2
fi

# A wedged campaign must not hang the whole nightly: each attempt runs
# under `timeout`, and a failed attempt gets exactly one retry after a
# backoff. The retry re-detects campaign state, so a timed-out fresh run
# resumes from whatever checkpoint it managed to commit.
CAMPAIGN_TIMEOUT="${CAMPAIGN_TIMEOUT:-1800}"
RETRY_BACKOFF="${RETRY_BACKOFF:-30}"

start_campaign() {
  # Either manifest.json or the sealed snapshot store in ${CORPUS_DIR}/ckpt
  # marks resumable state; `hcs_fuzz resume` prefers the snapshot.
  if [[ -f "${CORPUS_DIR}/manifest.json" || -d "${CORPUS_DIR}/ckpt" ]]; then
    echo "== resuming campaign in ${CORPUS_DIR}"
    timeout -k 30 "${CAMPAIGN_TIMEOUT}" \
      "${HCS_FUZZ}" resume --corpus "${CORPUS_DIR}" \
      --iterations "${ITERATIONS}"
  else
    echo "== starting fresh campaign in ${CORPUS_DIR}"
    timeout -k 30 "${CAMPAIGN_TIMEOUT}" \
      "${HCS_FUZZ}" run --corpus "${CORPUS_DIR}" \
      --iterations "${ITERATIONS}" --seed "${SEED}"
  fi
}

CAMPAIGN_RC=0
start_campaign || CAMPAIGN_RC=$?
if [[ "${CAMPAIGN_RC}" -ne 0 ]]; then
  if [[ "${CAMPAIGN_RC}" -eq 124 ]]; then
    echo "fuzz_nightly: campaign TIMED OUT after ${CAMPAIGN_TIMEOUT}s" >&2
  else
    echo "fuzz_nightly: campaign exited ${CAMPAIGN_RC}" >&2
  fi
  echo "fuzz_nightly: retrying once in ${RETRY_BACKOFF}s" >&2
  sleep "${RETRY_BACKOFF}"
  CAMPAIGN_RC=0
  start_campaign || CAMPAIGN_RC=$?
  if [[ "${CAMPAIGN_RC}" -ne 0 ]]; then
    if [[ "${CAMPAIGN_RC}" -eq 124 ]]; then
      echo "fuzz_nightly: campaign TIMED OUT again after" \
        "${CAMPAIGN_TIMEOUT}s; giving up" >&2
    else
      echo "fuzz_nightly: campaign retry exited ${CAMPAIGN_RC}" >&2
    fi
    exit "${CAMPAIGN_RC}"
  fi
fi

# The campaign itself exits 0 even when it finds failures (finding them is
# its job); the nightly turns new failures into a red run so they get
# triaged, minimized, and committed to tests/data/fuzz/.
FAILURES="$(python3 - "$CORPUS_DIR/manifest.json" <<'EOF'
import json, sys
print(len(json.load(open(sys.argv[1]))["failures"]))
EOF
)"

echo "== replaying committed corpus"
STATUS=0
shopt -s nullglob
for artifact in tests/data/fuzz/art_*.json; do
  if ! "${HCS_FUZZ}" replay --artifact "${artifact}"; then
    echo "fuzz_nightly: corpus regression in ${artifact}" >&2
    STATUS=1
  fi
done

if [[ "${FAILURES}" != "0" ]]; then
  echo "fuzz_nightly: campaign has recorded ${FAILURES} failure(s);" \
    "minimized artifacts are in ${CORPUS_DIR}" >&2
  STATUS=1
fi
exit "${STATUS}"
