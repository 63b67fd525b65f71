# Runs a CLI with one malformed argument and checks it is rejected as
# a usage error before anything runs: exit status 2, a message on
# stderr and nothing on stdout.
#
# Usage: cmake -DPROG=<binary> -DARG=<argument> -P cli_usage_error.cmake

execute_process(COMMAND ${PROG} ${ARG}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${ARG}: exited ${rc}, not 2\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "${ARG}: printed to stdout\n${out}")
endif()
if(err STREQUAL "")
    message(FATAL_ERROR "${ARG}: no message on stderr")
endif()
message(STATUS "${ARG}: ${err}")
