# Run app_dual_path with a flag a planned run refuses, after it has
# opened its CSV and telemetry sink. The harness must exit with a
# nonzero status (not an abort), print the error, and leave neither
# its CSV nor any `.tmp` file behind.
#
#   cmake -DHARNESS=<app_dual_path> -DOUT_DIR=<scratch dir>
#         -P harness_error_exit.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
    COMMAND "${HARNESS}" --fast --csv-dir "${OUT_DIR}"
            --checkpoint-dir "${OUT_DIR}/ck"
            --telemetry "${OUT_DIR}/t.jsonl"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
# A process killed by a signal reports a string, not a number.
if(NOT status MATCHES "^[1-9][0-9]*$" OR status EQUAL 134)
    message(FATAL_ERROR "expected a clean nonzero exit, got '${status}'")
endif()
if(NOT stderr MATCHES "--checkpoint-dir does not apply to a planned run")
    message(FATAL_ERROR "the error is missing from stderr: '${stderr}'")
endif()
file(GLOB_RECURSE leftovers "${OUT_DIR}/*.tmp")
if(leftovers OR EXISTS "${OUT_DIR}/app_dual_path.csv")
    file(GLOB_RECURSE files RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
    message(FATAL_ERROR "the failed run left files behind: ${files}")
endif()
