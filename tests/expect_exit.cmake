# Runs BIN with ARGS (one space-separated string) and passes when the program
# exits with status EXIT and its stderr matches REGEX.
#
#   cmake -DBIN=path/to/tool -DARGS="--flag=1" -DEXIT=2 -DREGEX="--flag" \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit status ${EXIT}, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${REGEX}")
  message(FATAL_ERROR "stderr does not match '${REGEX}':\n${err}")
endif()
