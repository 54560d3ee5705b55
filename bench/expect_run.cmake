# ctest helper: run one binary and check how it ends.
#
#   cmake -DBIN=<path> -DARGS="<space-separated args>" -DEXIT=<status>
#         [-DSTDOUT=<regex>] [-DUSAGE=ON] -P expect_run.cmake
#
# Fails unless BIN exits with exactly EXIT and, when given, its stdout
# matches STDOUT. USAGE=ON also requires an empty stdout (no work started)
# and a stderr that is one line ending in the usage text.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want ${EXIT}\n${err}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stdout lacks '${STDOUT}'\n${out}")
endif()
if(USAGE)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${BIN} ${ARGS}: printed to stdout\n${out}")
  endif()
  if(NOT err MATCHES "^[^\n]*; usage: [^\n]*\n$")
    message(FATAL_ERROR "${BIN} ${ARGS}: stderr is not one usage line\n${err}")
  endif()
endif()
