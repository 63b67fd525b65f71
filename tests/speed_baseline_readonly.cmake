# Runs slpmt_bench --speed-baseline in an empty directory and checks
# that it only reads the recorded profile: a copy of the profile stays
# byte-unchanged, and no BENCH_speed.json (where --profile writes by
# default) appears. table1 has no entry in the profile, so nothing is
# timed against it.
#
# Usage: cmake -DBENCH=<slpmt_bench> -DPROFILE=<BENCH_speed.json>
#              -DWORK_DIR=<dir> -P speed_baseline_readonly.cmake

set(run_dir ${WORK_DIR}/speed_baseline_run)
set(copy_dir ${WORK_DIR}/speed_baseline_copy)
file(REMOVE_RECURSE ${run_dir} ${copy_dir})
file(MAKE_DIRECTORY ${run_dir})
file(COPY ${PROFILE} DESTINATION ${copy_dir})
get_filename_component(name ${PROFILE} NAME)
set(copy ${copy_dir}/${name})

execute_process(COMMAND ${BENCH} --figure=table1 --speed-baseline=${copy}
                WORKING_DIRECTORY ${run_dir}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "slpmt_bench --speed-baseline exited ${rc}\n${err}")
endif()
file(SHA256 ${PROFILE} want)
file(SHA256 ${copy} got)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "--speed-baseline rewrote the profile it read")
endif()
if(EXISTS ${run_dir}/BENCH_speed.json)
    message(FATAL_ERROR "--speed-baseline wrote ${run_dir}/BENCH_speed.json")
endif()
