# Replays single points of a sampled service sweep through the
# crash_sweep CLI's --crash-point mode and checks each reprints the
# outcome the sweep reported for that point: the first mid-load point,
# a middle one and the post-completion point 0.
#
# Usage: cmake -DSWEEP=<crash_sweep binary> -DWORK_DIR=<dir>
#              -P crash_sweep_repro.cmake

set(args --target=service --scheme=SLPMT --tiny-cache --max-points=12
         --workers=1)
set(json ${WORK_DIR}/crash_sweep_service_repro.json)
execute_process(COMMAND ${SWEEP} ${args} --json=${json}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "service sweep exited ${rc}")
endif()

file(READ ${json} doc)
string(JSON count LENGTH "${doc}" sweeps 0 points)
math(EXPR middle "${count} / 2")
math(EXPR last "${count} - 1")
foreach(i 0 ${middle} ${last})
    string(JSON k GET "${doc}" sweeps 0 points ${i} crash_point)
    string(JSON fired GET "${doc}" sweeps 0 points ${i} fired)
    string(JSON ops GET "${doc}" sweeps 0 points ${i} committed_ops)
    string(JSON replayed GET "${doc}" sweeps 0 points ${i}
           replayed_records)
    string(JSON violations GET "${doc}" sweeps 0 points ${i} violations)
    if(fired)
        set(fired 1)
    else()
        set(fired 0)
    endif()
    set(expected "crash_point=${k} fired=${fired} committed_ops=${ops} "
                 "replayed_records=${replayed} violations=${violations}")
    string(JOIN "" expected ${expected})

    execute_process(COMMAND ${SWEEP} ${args} --crash-point=${k}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    string(REGEX MATCH "^[^\n]*" line "${out}")
    if(NOT line STREQUAL expected)
        message(FATAL_ERROR "point ${k}: repro printed\n  ${line}\n"
                            "the sweep reported\n  ${expected}")
    endif()
    message(STATUS "point ${k}: ${line}")
endforeach()
