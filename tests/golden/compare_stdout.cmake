# Runs a command and requires its stdout to equal a checked-in golden file
# byte for byte:
#
#   cmake -DGOLDEN=<expected.txt> -DACTUAL=<output.txt> -P compare_stdout.cmake
#         -- <command> [args...]
#
# The command must also exit 0. On a mismatch the actual output stays in
# ACTUAL and a unified diff against the golden file is printed.
set(_cmd)
set(_after_marker FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE ${_last})
  if(_after_marker)
    list(APPEND _cmd "${CMAKE_ARGV${_i}}")
  elseif("${CMAKE_ARGV${_i}}" STREQUAL "--")
    set(_after_marker TRUE)
  endif()
endforeach()
if(NOT _cmd OR NOT GOLDEN OR NOT ACTUAL)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=f -DACTUAL=f -P compare_stdout.cmake -- cmd...")
endif()

string(REPLACE ";" " " _shown "${_cmd}")
execute_process(COMMAND ${_cmd} OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "command exited with ${_rc}: ${_shown}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE _differs)
if(NOT _differs EQUAL 0)
  find_program(_diff diff)
  if(_diff)
    execute_process(COMMAND "${_diff}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout of `${_shown}` differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
