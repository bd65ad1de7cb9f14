# One lockstep recipe, run as a ctest (cmake -P):
#
#   cmake -DBENCH=<binary> "-DARGS=<bench args>" -DOUT=<artifact>
#         -DPYTHON=<python3> -DCHECKER=<check_artifact.py> -DDIGEST=<json>
#         -P lockstep.cmake
#
# The bench writes its run artifact to OUT (in the build tree); then
# check_artifact.py --lockstep compares the artifact's virtual-time digest
# with the checked-in DIGEST. Either step failing fails the test.
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args} --json-out "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${PYTHON}" "${CHECKER}" --run-artifact "${OUT}"
                        --lockstep "${DIGEST}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lockstep digest mismatch against ${DIGEST}")
endif()
