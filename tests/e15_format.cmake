# E15 hands its reports to the display reporter that --benchmark_format
# selects: with json, stdout must be one JSON document naming the benchmark
# it ran.
#
#   cmake -DE15=<path to bench_e15_micro> -P e15_format.cmake
execute_process(
  COMMAND ${E15} --benchmark_filter=BM_LevyFlightStep --benchmark_min_time=0.01
          --benchmark_format=json
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_e15_micro exited with ${rc}")
endif()
string(JSON name ERROR_VARIABLE err GET "${out}" benchmarks 0 name)
if(err OR NOT name STREQUAL "BM_LevyFlightStep")
  message(FATAL_ERROR "stdout is not a JSON report of BM_LevyFlightStep (${err}):\n${out}")
endif()
