# Runs crash_sweep twice, a FIRST and a SECOND variant of one command
# line, and compares the two --json documents: their "sweeps" arrays,
# their parallel_wall_ms, or both. Either run exiting nonzero (a
# violation, a usage error) fails the comparison.
#
# Usage: cmake -DSWEEP=<crash_sweep> -DWORK_DIR=<dir> -DNAME=<name>
#              "-DARGS=<flags both runs take>"
#              "-DFIRST=<flags of the first run>"
#              "-DSECOND=<flags of the second run>"
#              [-DRUNS=<n>] [-DSAME_SWEEPS=1]
#              [-DMAX_RATIO=<n>] [-DMIN_RATIO=<n> [-DFLOOR_MS=<ms>]]
#              -P compare_sweeps.cmake
#
#  RUNS        runs per variant, each keeping its fastest
#              parallel_wall_ms, so one descheduled run cannot fail a
#              ratio (default 1)
#  SAME_SWEEPS the two "sweeps" arrays must be byte-identical
#  MAX_RATIO   the first run may take at most this many times the
#              second's wall time
#  MIN_RATIO   the first run must take at least this many times the
#              second's wall time; skipped when the first run finishes
#              under FLOOR_MS, too short to time reliably (default 0)

if(NOT RUNS)
    set(RUNS 1)
endif()
if(NOT FLOOR_MS)
    set(FLOOR_MS 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")

foreach(variant FIRST SECOND)
    separate_arguments(extra UNIX_COMMAND "${${variant}}")
    set(json ${WORK_DIR}/${NAME}_${variant}.json)
    set(best "")
    foreach(run RANGE 1 ${RUNS})
        execute_process(COMMAND ${SWEEP} ${args} ${extra} --json=${json}
                        RESULT_VARIABLE rc OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${variant} run (${${variant}}) exited ${rc}")
        endif()
        file(READ ${json} doc)
        # Whole milliseconds: math(EXPR) has no fractions.
        if(NOT doc MATCHES "\"parallel_wall_ms\":([0-9]+)")
            message(FATAL_ERROR "${json} carries no parallel_wall_ms")
        endif()
        if(best STREQUAL "" OR CMAKE_MATCH_1 LESS best)
            set(best ${CMAKE_MATCH_1})
        endif()
    endforeach()
    set(${variant}_ms ${best})
    # The "sweeps" array is everything before the timings.
    string(FIND "${doc}" ",\"parallel_wall_ms\":" cut)
    string(SUBSTRING "${doc}" 0 ${cut} ${variant}_sweeps)
endforeach()

message(STATUS "first (${FIRST}) ${FIRST_ms} ms, "
               "second (${SECOND}) ${SECOND_ms} ms")

if(SAME_SWEEPS AND NOT FIRST_sweeps STREQUAL SECOND_sweeps)
    message(FATAL_ERROR "the sweeps arrays differ: compare "
                        "${WORK_DIR}/${NAME}_FIRST.json with "
                        "${WORK_DIR}/${NAME}_SECOND.json")
endif()

if(MAX_RATIO)
    math(EXPR limit_ms "${SECOND_ms} * ${MAX_RATIO}")
    if(FIRST_ms GREATER limit_ms)
        message(FATAL_ERROR "the first run's ${FIRST_ms} ms is more than "
                            "${MAX_RATIO}x the second's ${SECOND_ms} ms")
    endif()
endif()

if(MIN_RATIO)
    math(EXPR limit_ms "${SECOND_ms} * ${MIN_RATIO}")
    if(FIRST_ms LESS FLOOR_MS)
        message(STATUS "ratio skipped: the first run's ${FIRST_ms} ms is "
                       "under the ${FLOOR_MS} ms noise floor")
    elseif(FIRST_ms LESS limit_ms)
        message(FATAL_ERROR "the first run's ${FIRST_ms} ms is less than "
                            "${MIN_RATIO}x the second's ${SECOND_ms} ms")
    endif()
endif()
