# A figure driver handed a JSON file as its --cells store must refuse
# it: exit code 1 (not an uncaught exception), a message naming
# `vqastore import`, and the file left byte-for-byte unchanged.
#
#   cmake -DDRIVER=<fig driver> -DWORK_DIR=<scratch dir> -P driver_refuses_json_cells.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(cells "${WORK_DIR}/refused_cells.json")
set(content "{\"sweep\": \"fig12_clifford_scale\", \"cells\": []}\n")
file(WRITE "${cells}" "${content}")

execute_process(
  COMMAND "${DRIVER}" --smoke --cells "${cells}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)

if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "vqastore import" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name `vqastore import`:\n${err}")
endif()
file(READ "${cells}" after)
if(NOT after STREQUAL content)
  message(FATAL_ERROR "the refused store was modified:\n${after}")
endif()
