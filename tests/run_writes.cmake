# Runs EXE in a fresh directory DIR and fails unless it exits 0 and writes
# each file of OUTPUTS (comma-separated, may be empty) there.
#   cmake -DEXE=<binary> -DDIR=<dir> -DOUTPUTS=a.csv,b.csv -P run_writes.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${EXE}" WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${status}")
endif()
string(REPLACE "," ";" outputs "${OUTPUTS}")
foreach(output IN LISTS outputs)
  if(NOT EXISTS "${DIR}/${output}")
    message(FATAL_ERROR "${EXE} did not write ${output}")
  endif()
endforeach()
