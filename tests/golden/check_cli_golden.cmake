# Runs one CLI command and compares its stdout with a golden file.
#
#   cmake -DTOOL=<exe> -DDUMP_DIR=<dir> -DARGS="<flags>" -DGOLDEN=<file>
#         -P check_cli_golden.cmake
#
# The tool runs as `<exe> <dir> <flags>`. The dump directory is the
# only machine-specific text in its stdout (the site-table header names
# it), so every occurrence is replaced by `<dump_dir>` before the
# comparison. On a mismatch the filtered stdout is written next to the
# build's copy as <golden name>.actual for a diff.
separate_arguments(flags UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" "${DUMP_DIR}" ${flags}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited ${rc}:\n${err}")
endif()
string(REPLACE "${DUMP_DIR}" "<dump_dir>" out "${out}")
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                      "filtered stdout written to ${actual}:\n${out}")
endif()
