# Run one bench harness at --fast into a scratch directory and require
# each of its CSVs to equal the frozen fixture byte for byte.
#
#   cmake -DHARNESS=<binary> "-DCSVS=<a>.csv;<b>.csv" -DGOLDEN_DIR=<dir>
#         -DOUT_DIR=<scratch dir> -P compare_harness.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
    COMMAND "${HARNESS}" --fast --csv-dir "${OUT_DIR}"
    RESULT_VARIABLE status
    OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} --fast failed: ${status}")
endif()
foreach(csv IN LISTS CSVS)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${OUT_DIR}/${csv}" "${GOLDEN_DIR}/${csv}"
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR
            "${OUT_DIR}/${csv} differs from ${GOLDEN_DIR}/${csv}")
    endif()
endforeach()
