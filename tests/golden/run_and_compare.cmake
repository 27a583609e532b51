# Runs one command and checks its exit code, its output and the files it
# writes. The bench goldens and the ibplace CLI tests all run through
# this script; ibp_add_check() in the top-level CMakeLists.txt adds them.
#
# Usage: cmake [-D<KEY>=<value>...] -P run_and_compare.cmake -- <command>...
#
#   RC      exit code the command must return (default 0)
#   EXPECT  regex its merged stdout and stderr must match
#   OUT     a file the command writes, which must be byte-identical to
#   GOLDEN  a checked-in file
#   CAPTURE when set, this script writes the command's merged stdout and
#           stderr to OUT itself (a bench whose golden is its printout)
#   TRACE   a Chrome trace the command writes: it must parse as JSON and
#           hold counter ("C") and flow ("s", "f") records
#   TRACE_EXPECT  regex the TRACE file must also match
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "no command after --")
endif()
string(JOIN " " cmdline ${cmd})
if(NOT DEFINED RC)
  set(RC 0)
endif()

# A stale file from an earlier run must not stand in for this run's.
if(DEFINED OUT OR DEFINED TRACE)
  file(REMOVE ${OUT} ${TRACE})
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "${cmdline}\nexited with ${rc}, expected ${RC}:\n${out}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${cmdline}\nprinted nothing matching '${EXPECT}':\n${out}")
endif()

if(CAPTURE)
  file(WRITE ${OUT} "${out}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from golden ${GOLDEN}")
  endif()
endif()

if(DEFINED TRACE)
  file(READ ${TRACE} json)
  string(JSON events ERROR_VARIABLE err LENGTH "${json}")
  if(err)
    message(FATAL_ERROR "${TRACE} is not valid JSON: ${err}")
  endif()
  foreach(ph C s f)
    string(FIND "${json}" "\"ph\": \"${ph}\"" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${TRACE} holds no \"ph\": \"${ph}\" record")
    endif()
  endforeach()
  if(DEFINED TRACE_EXPECT AND NOT json MATCHES "${TRACE_EXPECT}")
    message(FATAL_ERROR "${TRACE} holds nothing matching '${TRACE_EXPECT}'")
  endif()
endif()
