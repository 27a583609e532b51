# Runs a bench with --short --json=<tmp> and byte-compares the JSON
# against a checked-in golden file. A bench that exits non-zero (e.g. a
# self-asserted floor) fails the test too.
#
# Arguments (via -D):
#   BIN     — bench executable
#   GOLDEN  — checked-in golden JSON
#   OUT     — scratch path for the run's JSON

execute_process(
  COMMAND ${BIN} --short --json=${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "${OUT} differs from golden ${GOLDEN}: the bench's --short --json "
          "output is no longer byte-identical")
endif()
