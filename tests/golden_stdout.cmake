# Runs BIN with ARGS (one space-separated string) and passes when it exits 0
# and its stdout is byte-identical to the file GOLDEN. Optional:
#   DROP         a regex; stdout lines that start with a match are left out
#                of the comparison (e.g. "\\[repro\\]", a banner that names
#                the host's thread count)
#   OUT_FILE     a file the program writes (a relative path is taken from the
#                test's working directory), compared with OUT_GOLDEN
#
#   cmake -DBIN=path/to/tool -DARGS="--size=XS" -DGOLDEN=golden/out.txt \
#         [-DDROP=regex] [-DOUT_FILE=out.json -DOUT_GOLDEN=golden/out.json] \
#         -P golden_stdout.cmake
#
# On a mismatch the actual bytes are kept next to the test as
# <golden name>.actual, and the diff is printed when `diff` is installed.

function(compare_with_golden actual golden what)
  get_filename_component(name "${golden}" NAME)
  set(kept "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(READ "${golden}" expected)
  if(actual STREQUAL expected)
    file(REMOVE "${kept}")
    return()
  endif()
  file(WRITE "${kept}" "${actual}")
  find_program(DIFF diff)
  if(DIFF)
    # Straight to the test's output: message() would re-wrap the lines.
    execute_process(COMMAND "${DIFF}" -u "${golden}" "${kept}")
  endif()
  message(FATAL_ERROR "${what} differs from ${golden} (actual: ${kept})")
endfunction()

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(OUT_FILE)
  file(REMOVE "${OUT_FILE}")
endif()
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'; stderr:\n${err}")
endif()
if(DROP)
  # A leading newline lets the first line match like every other.
  string(REGEX REPLACE "\n${DROP}[^\n]*" "" out "\n${out}")
  string(SUBSTRING "${out}" 1 -1 out)
endif()
compare_with_golden("${out}" "${GOLDEN}" "stdout")
if(OUT_FILE)
  if(NOT EXISTS "${OUT_FILE}")
    message(FATAL_ERROR "the program did not write ${OUT_FILE}")
  endif()
  file(READ "${OUT_FILE}" written)
  compare_with_golden("${written}" "${OUT_GOLDEN}" "${OUT_FILE}")
endif()
