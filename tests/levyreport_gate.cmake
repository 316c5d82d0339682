# levyreport_gate.cmake — the throughput gate over repeated runs, as CI's
# bench-smoke job runs it: three result directories per side, each side's
# trials/s per experiment the median of its runs, and the 50% bound. A cold
# runner makes one run 2–4x slow; that run alone must not trip the gate,
# while a uniform 2x slowdown must, and a run that left no documents is an
# error rather than a pass on the other runs. Registered as the tier-1 ctest
# `levyreport_gate_median`:
#
#   cmake -DLEVYREPORT=<build>/tools/levyreport -DOUT_DIR=<scratch> \
#         -P levyreport_gate.cmake

foreach(var LEVYREPORT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "levyreport_gate.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

# One run: BENCH_E1/E3/E4.json at the given trials/s, 400 trials each.
function(write_run name e1 e3 e4)
  foreach(pair "E1;${e1}" "E3;${e3}" "E4;${e4}")
    list(GET pair 0 id)
    list(GET pair 1 rate)
    math(EXPR millis "400000 / ${rate}")
    file(WRITE "${OUT_DIR}/${name}/BENCH_${id}.json" "{
  \"schema\": \"levy-bench\", \"version\": 1, \"experiment\": \"${id}\",
  \"git_describe\": \"fixture\", \"options\": {\"trials\": \"400\"},
  \"rows\": [],
  \"metrics\": {\"trials\": 400, \"wall_seconds\": ${millis}e-3, \"busy_seconds\": ${millis}e-3,
    \"max_workers\": 1, \"trials_per_sec\": ${rate}, \"utilization\": 1.0, \"censored\": 0,
    \"counters\": {}, \"gauges\": {}, \"per_phase_spans\": []}
}
")
  endforeach()
endfunction()

write_run(base-1 1000 500 2000)
write_run(base-2 1060 520 1900)
write_run(base-3 940 480 2100)
# The third run is the cold one: every bench about 3x slow.
write_run(outlier-1 990 510 2050)
write_run(outlier-2 1030 470 1950)
write_run(outlier-3 330 160 600)
write_run(slow-1 500 250 1000)
write_run(slow-2 530 260 950)
write_run(slow-3 470 240 1050)

# Exit status of levyreport over `args`, its stderr in `err_var`.
function(gate result_var err_var)
  execute_process(COMMAND "${LEVYREPORT}" --fail-on-regression=50 ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  set(${result_var} ${status} PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

gate(status err outlier-1 outlier-2 outlier-3 -- base-1 base-2 base-3)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "one cold run tripped the median gate (status ${status}):\n${err}")
endif()

# The cold run on its own, against one baseline run, is a regression: the
# median is what absorbs it.
gate(status err outlier-3 base-1)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "the cold run alone passed the gate (status ${status})")
endif()

gate(status err slow-1 slow-2 slow-3 -- base-1 base-2 base-3)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "a uniform 2x slowdown passed the median gate (status ${status})")
endif()
foreach(id E1 E3 E4)
  if(NOT err MATCHES "throughput regression — ${id}: 50.0% slower")
    message(FATAL_ERROR "the 2x slowdown did not name ${id} at 50.0%:\n${err}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}/empty")
gate(status err outlier-1 outlier-2 -- base-1 empty)
if(status EQUAL 0 OR NOT err MATCHES "no BENCH_\\*.json in empty")
  message(FATAL_ERROR "a run with no documents passed the gate (status ${status}):\n${err}")
endif()
