# Runs one example and compares its stdout byte for byte with a recorded
# golden file:
#   cmake -DEXE=<example binary> -DGOLDEN=<golden file> -P check_stdout.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${EXE} stdout differs from ${GOLDEN}:\n${actual}")
endif()
