# A figure driver whose sweep is not a workload vqad serves must refuse
# --daemon: exit code 2 with the usage (never a silent local run), and
# stderr naming the refused flag.
#
#   cmake -DDRIVER=<fig driver> -P driver_refuses_daemon.cmake

execute_process(
  COMMAND "${DRIVER}" --smoke --daemon /nonexistent.sock
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)

if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "--daemon" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name --daemon:\n${err}")
endif()
string(FIND "${err}" "usage:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not print the usage:\n${err}")
endif()
