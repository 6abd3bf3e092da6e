# Run BIN and compare its stdout byte for byte with EXPECTED.
#   cmake -DBIN=<binary> -DEXPECTED=<file> -DACTUAL=<file> -P golden.cmake
# On a mismatch the output is kept in ACTUAL and diffed against
# EXPECTED.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
    file(WRITE ${ACTUAL} "${out}")
    execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
    message(FATAL_ERROR "stdout of ${BIN} differs from ${EXPECTED}")
endif()
