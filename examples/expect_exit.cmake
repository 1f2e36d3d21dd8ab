# Runs CMD with ARGS (a ;-list) and passes only if it exits with EXPECT.
# A crash or any other exit code fails, unlike WILL_FAIL.
#   cmake -DCMD=<exe> -DARGS=<a;b> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', expected ${EXPECT}")
endif()
