# Test driver: run BINARY with ARGS and require exit status STATUS and a
# stderr line matching STDERR_REGEX — e.g. a flag value that does not
# parse must exit 2 naming the flag, not abort in std::terminate.
#
# Usage: cmake -DBINARY=<path> -DARGS=<args> -DSTATUS=<n>
#              -DSTDERR_REGEX=<regex> -P expect_exit_status.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${BINARY} ${arg_list}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "expected exit status ${STATUS}, got '${rc}'\nstderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}': ${err}")
endif()
