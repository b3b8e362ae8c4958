# Numeric flag checks for bp_corpus, run as a ctest script:
#
#   cmake -DBP_CORPUS=<bp_corpus> -DMISSING_DIR=<path> -P cli_limits.cmake
#
# Out-of-range and malformed values must be usage errors (exit 2),
# rejected before the trace directory is looked at. Values at the
# limit get past parsing and fail on the missing directory instead
# (exit 1).

function(expect_exit want)
    execute_process(
        COMMAND ${BP_CORPUS} ${MISSING_DIR} ${ARGN}
        RESULT_VARIABLE got
        OUTPUT_QUIET
        ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT got STREQUAL "${want}")
        message(FATAL_ERROR
            "bp_corpus ${ARGN}: exit '${got}', want ${want}\n${err}")
    endif()
    if(want EQUAL 2 AND NOT err MATCHES "usage: bp_corpus")
        message(FATAL_ERROR "bp_corpus ${ARGN}: no usage text\n${err}")
    endif()
endfunction()

expect_exit(2 --block-size 18446744073709551615)
expect_exit(2 --block-size 2000000000)
expect_exit(2 --block-size 16777217)
expect_exit(2 --block-size -1)
expect_exit(1 --block-size 16777216)
expect_exit(2 --topk 400000000)
expect_exit(2 --topk 1048577)
expect_exit(2 --topk 12x)
expect_exit(1 --topk 1048576)
expect_exit(2 --threads 4097)
expect_exit(1 --threads 0)
