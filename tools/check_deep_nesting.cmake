# Runs one artifact checker on a file of 200 000 nested arrays and requires
# it to refuse the file with exit code 1 (a crash exits with a signal):
#   cmake -DTOOL=<binary> [-DFLAG=<flag>] -DFILE=<scratch file> -P check_deep_nesting.cmake
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
file(WRITE "${FILE}" "${open}${close}\n")
execute_process(COMMAND "${TOOL}" ${FLAG} "${FILE}" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${TOOL} ${FLAG} exited with '${rc}', expected 1")
endif()
