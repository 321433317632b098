# Byte-identity gate for the capacity planner's verification sweep.
#
#   cmake -DAUDIT=<network_audit> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir>
#         -P network_audit_golden.cmake
#
# Runs `network_audit --dim 8 --goal moves --verify` with --csv and --json
# into OUT_DIR and fails unless both files equal the committed goldens in
# GOLDEN_DIR byte for byte. Regenerate the goldens only for a change that
# is meant to alter what a run computes, and say so in CHANGES.md.

file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${AUDIT}" --dim 8 --goal moves --verify
          --csv "${OUT_DIR}/network_audit_dim8_moves.csv"
          --json "${OUT_DIR}/network_audit_dim8_moves.json"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "network_audit exited with ${status}")
endif()

foreach(ext csv json)
  set(name "network_audit_dim8_moves.${ext}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/${name}" "${GOLDEN_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT_DIR}/${name} differs from ${GOLDEN_DIR}/${name}")
  endif()
endforeach()
