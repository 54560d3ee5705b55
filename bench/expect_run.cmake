# ctest helper: run one binary and check how it ends.
#
#   cmake -DBIN=<path> -DARGS="<space-separated args>" -DEXIT=<status>
#         [-DSTDOUT=<regex>] [-DSTDOUT_SHA256=<hex>] [-DUSAGE=ON]
#         [-DFILE=<path> -DSHA256=<hex>] -P expect_run.cmake
#
# Fails unless BIN exits with exactly EXIT and, when given, its stdout
# matches STDOUT and has SHA-256 digest STDOUT_SHA256. USAGE=ON also
# requires an empty stdout (no work started) and a stderr that is one line
# ending in the usage text. FILE is removed before the run; BIN must write
# it anew, with SHA-256 digest SHA256.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED FILE)
  file(REMOVE "${FILE}")
endif()
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want ${EXIT}\n${err}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stdout lacks '${STDOUT}'\n${out}")
endif()
if(DEFINED STDOUT_SHA256)
  string(SHA256 digest "${out}")
  if(NOT digest STREQUAL "${STDOUT_SHA256}")
    message(FATAL_ERROR "${BIN} ${ARGS}: stdout has SHA-256 ${digest}, "
                        "want ${STDOUT_SHA256}\n${out}")
  endif()
endif()
if(USAGE)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${BIN} ${ARGS}: printed to stdout\n${out}")
  endif()
  if(NOT err MATCHES "^[^\n]*; usage: [^\n]*\n$")
    message(FATAL_ERROR "${BIN} ${ARGS}: stderr is not one usage line\n${err}")
  endif()
endif()
if(DEFINED FILE)
  if(NOT EXISTS "${FILE}")
    message(FATAL_ERROR "${BIN} ${ARGS}: wrote no ${FILE}")
  endif()
  file(SHA256 "${FILE}" digest)
  if(NOT digest STREQUAL "${SHA256}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: ${FILE} has SHA-256 ${digest}, want ${SHA256}")
  endif()
endif()
