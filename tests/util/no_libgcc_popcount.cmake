# Fail when any confsim library references libgcc's __popcountdi2.
# popcount() (util/bits.h) is an inline SWAR count because a baseline
# x86-64 build (no POPCNT) turns std::popcount into a call to that
# helper, one call per ones-count bucket and per packed-bank read.
#
#   cmake -DNM=<nm> "-DLIBS=<libconfsim_a.a;...>"
#         -P no_libgcc_popcount.cmake
if(NOT LIBS)
    message(FATAL_ERROR "no libraries to check")
endif()
foreach(lib IN LISTS LIBS)
    execute_process(
        COMMAND "${NM}" -A "${lib}"
        RESULT_VARIABLE status
        OUTPUT_VARIABLE symbols
        ERROR_VARIABLE errors)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${NM} failed on ${lib}: ${errors}")
    endif()
    if(symbols MATCHES "[^\n]*__popcountdi2[^\n]*")
        message(FATAL_ERROR "${lib} calls libgcc's popcount: "
                "${CMAKE_MATCH_0}")
    endif()
endforeach()
