# Table III crash points at tiny-cache cost: runs one exhaustive core
# sweep at the Table III geometry and again with --tiny-cache, and
# fails when the Table III run takes more than MAX_RATIO times as long.
# A crash point's host cost must follow the lines it uses, not the
# capacity of the caches it builds, crashes, restores and flushes.
# Each geometry runs three times and keeps its fastest
# parallel_wall_ms, so one descheduled run cannot fail the gate.
#
# Usage: cmake -DSWEEP=<crash_sweep> -DWORK_DIR=<dir> -DMAX_RATIO=<n>
#              -P table3_sweep_cost.cmake

set(args --full --scheme=SLPMT --workload=hashtable --ops=500
         --mix=10,90,0 --value-bytes=256 --workers=1)
foreach(geometry table3 tiny)
    set(extra "")
    if(geometry STREQUAL "tiny")
        set(extra --tiny-cache)
    endif()
    set(best "")
    foreach(run 1 2 3)
        set(json ${WORK_DIR}/table3_sweep_cost_${geometry}.json)
        execute_process(COMMAND ${SWEEP} ${args} ${extra} --json=${json}
                        RESULT_VARIABLE rc OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${geometry} sweep exited ${rc}")
        endif()
        file(READ ${json} doc)
        string(JSON ms GET "${doc}" parallel_wall_ms)
        # Whole milliseconds: math(EXPR) has no fractions.
        string(REGEX REPLACE "\\..*$" "" ms "${ms}")
        if(best STREQUAL "" OR ms LESS best)
            set(best ${ms})
        endif()
    endforeach()
    set(${geometry}_ms ${best})
endforeach()

math(EXPR limit_ms "${tiny_ms} * ${MAX_RATIO}")
math(EXPR percent "100 * ${table3_ms} / ${tiny_ms}")
message(STATUS "Table III ${table3_ms} ms vs tiny-cache ${tiny_ms} ms: "
               "${percent}% (limit ${MAX_RATIO}x)")
if(table3_ms GREATER limit_ms)
    message(FATAL_ERROR "Table III sweep ${table3_ms} ms is more than "
                        "${MAX_RATIO}x the tiny-cache sweep's ${tiny_ms} ms")
endif()
