# ctest helper: runs the command after `--` and fails unless it exits with
# EXIT, its output (stdout and stderr together) matches the regex MATCH,
# and that output nowhere contains the text REJECT.
#
#   cmake -DEXIT=1 -DMATCH=<regex> -DREJECT=<text> -P expect_run.cmake -- cmd...
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd)
set(after_dashes FALSE)
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "exit ${code}, expected ${EXIT}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "no match for '${MATCH}' in the output")
endif()
string(FIND "${out}" "${REJECT}" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "the output contains '${REJECT}'")
endif()
