# Runs BIN with ARGS and fails unless its stdout equals the GOLDEN file byte
# for byte. On a mismatch the actual output is written to ACTUAL.
#
#   cmake -DBIN=<exe> "-DARGS=<arg;arg>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden file.\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
