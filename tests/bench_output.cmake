# Runs every figure of slpmt_bench and checks that it exits 0 and that
# its stdout, every table of every figure, equals the committed
# bench_output.txt byte for byte. On a mismatch the new output is kept
# in WORK_DIR, and the message gives the commands that diff it and
# that re-record the committed file from it.
#
# Usage: cmake -DBENCH=<slpmt_bench> -DEXPECTED=<bench_output.txt>
#              -DWORK_DIR=<dir> -P bench_output.cmake

execute_process(COMMAND ${BENCH} --figure=all
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "slpmt_bench --figure=all exited ${rc}\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT "${out}" STREQUAL "${expected}")
    set(actual ${WORK_DIR}/bench_output.txt)
    file(WRITE ${actual} "${out}")
    message(FATAL_ERROR
            "slpmt_bench --figure=all stdout differs from ${EXPECTED}\n"
            "  see the difference: diff ${EXPECTED} ${actual}\n"
            "  re-record, once the change is meant: "
            "cp ${actual} ${EXPECTED}")
endif()
