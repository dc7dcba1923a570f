# Copies the files scripts/check_config_docs.py reads into WORK, adds a
# docs/METRICS.md gating note that names a field LvrmConfig does not have,
# and requires the script to exit 1 and name that field.
#
#   cmake -DPYTHON=<python3> -DROOT=<repo> -DWORK=<dir> -P config_docs_stale_gate.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/src/lvrm ${WORK}/src/obs ${WORK}/docs)
file(COPY ${ROOT}/src/lvrm/config.hpp DESTINATION ${WORK}/src/lvrm)
file(COPY ${ROOT}/README.md DESTINATION ${WORK})
file(GLOB obs_headers ${ROOT}/src/obs/*.hpp)
file(COPY ${obs_headers} DESTINATION ${WORK}/src/obs)

file(READ ${ROOT}/docs/METRICS.md metrics)
string(APPEND metrics
       "\nThe gauges below are registered **only\nwhen `mpmc_fabric`** is on.\n")
file(WRITE ${WORK}/docs/METRICS.md "${metrics}")

execute_process(COMMAND ${PYTHON} ${ROOT}/scripts/check_config_docs.py ${WORK}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1 on the stale gate, got ${status}:\n${out}")
endif()
if(NOT out MATCHES "gating notes[^\n]*\n  mpmc_fabric")
  message(FATAL_ERROR "the report does not name the stale gate:\n${out}")
endif()
