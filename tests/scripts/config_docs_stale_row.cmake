# Copies the files scripts/check_config_docs.py reads into WORK, adds a row
# for a field LvrmConfig does not have to the README's configuration table,
# and requires the script to exit 1 and name that row.
#
#   cmake -DPYTHON=<python3> -DROOT=<repo> -DWORK=<dir> -P config_docs_stale_row.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/src/lvrm ${WORK}/src/obs)
file(COPY ${ROOT}/src/lvrm/config.hpp DESTINATION ${WORK}/src/lvrm)
file(GLOB obs_headers ${ROOT}/src/obs/*.hpp)
file(COPY ${obs_headers} DESTINATION ${WORK}/src/obs)

file(READ ${ROOT}/README.md readme)
set(anchor "| `adapter` |")
string(FIND "${readme}" "${anchor}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "README.md has no `adapter` row to insert before")
endif()
string(REPLACE "${anchor}"
       "| `descriptor_rings` | `false` | a knob that no longer exists | - |\n${anchor}"
       readme "${readme}")
file(WRITE ${WORK}/README.md "${readme}")

execute_process(COMMAND ${PYTHON} ${ROOT}/scripts/check_config_docs.py ${WORK}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1 on the stale row, got ${status}:\n${out}")
endif()
if(NOT out MATCHES "descriptor_rings")
  message(FATAL_ERROR "the report does not name the stale row:\n${out}")
endif()
