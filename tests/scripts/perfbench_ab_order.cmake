# Runs scripts/perfbench_ab.py --dry-run for five pairs and requires the run
# order to alternate: pair 1 base then change, pair 2 change then base, and
# so on, ten runs in all.
#
#   cmake -DPYTHON=<python3> -DROOT=<repo> -P perfbench_ab_order.cmake
execute_process(COMMAND ${PYTHON} ${ROOT}/scripts/perfbench_ab.py
                        --base /base --change /change --workload udp_fwd
                        --pairs 5 --dry-run
                OUTPUT_VARIABLE out
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--dry-run exited ${status}:\n${out}")
endif()

set(expected "")
foreach(pair 1 2 3 4 5)
  math(EXPR odd "${pair} % 2")
  if(odd)
    list(APPEND expected "${pair} base" "${pair} change")
  else()
    list(APPEND expected "${pair} change" "${pair} base")
  endif()
endforeach()

string(REGEX MATCHALL "run [0-9]+: pair [0-9]+ [a-z]+" runs "${out}")
list(LENGTH runs n)
if(NOT n EQUAL 10)
  message(FATAL_ERROR "expected 10 runs, got ${n}:\n${out}")
endif()
set(i 0)
foreach(run IN LISTS runs)
  list(GET expected ${i} want)
  math(EXPR i "${i} + 1")
  if(NOT run STREQUAL "run ${i}: pair ${want}")
    message(FATAL_ERROR "run ${i} is '${run}', expected 'pair ${want}':\n${out}")
  endif()
endforeach()
