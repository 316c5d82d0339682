# golden_tables.cmake — rerun the checked-in experiment tables and diff each
# against its golden file. Registered as the tier-1 ctest `golden_tables`:
#
#   cmake -DBENCH_DIR=<build>/bench -DGOLDEN_DIR=tests/data/golden \
#         -DOUT_DIR=<scratch> -P golden_tables.cmake
#
# Every engine-vs-engine diff in CI compares two runs of one commit, so a
# change that moves every engine together (a shared sampler, the ring, a
# strategy's draw order, a table's formatting) passes all of them. These
# files pin the tables across commits instead.
#
# A golden file is a header of `#` lines and then the table exactly as the
# bench prints it, minus its `throughput:` line:
#
#   # run: <bench binary> <flags...>       the command that printed the table
#   # also: <extra flags...>               (any number) the same command with
#                                          these flags must print it too
#   # compiler: ... / # libc: ...          the toolchain that generated it
#
# A change that means to move a table regenerates its file in the same diff
# and says why in CHANGES.md. To regenerate one (from the build directory):
#
#   bench/<binary> <flags...> | grep -v '^throughput:'
#
# and keep the header lines.

foreach(var BENCH_DIR GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_tables.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
find_program(DIFF diff)

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
if(NOT goldens)
  message(FATAL_ERROR "golden_tables.cmake: no golden files in ${GOLDEN_DIR}")
endif()

set(failures 0)
foreach(golden IN LISTS goldens)
  get_filename_component(name "${golden}" NAME_WE)
  file(READ "${golden}" content)
  if(NOT content MATCHES "# run: ([^\n]*)")
    message(FATAL_ERROR "${golden}: no '# run:' header line")
  endif()
  separate_arguments(command UNIX_COMMAND "${CMAKE_MATCH_1}")
  list(POP_FRONT command bench)
  string(REGEX REPLACE "^(#[^\n]*\n)+" "" expected "${content}")
  file(WRITE "${OUT_DIR}/${name}.expected" "${expected}")

  # The plain command first, then each `# also:` variant.
  string(REGEX MATCHALL "# also: [^\n]*" also_lines "${content}")
  set(runs "<none>")
  foreach(line IN LISTS also_lines)
    string(REPLACE "# also: " "" extra "${line}")
    list(APPEND runs "${extra}")
  endforeach()

  set(index 0)
  foreach(extra IN LISTS runs)
    set(args ${command})
    if(NOT extra STREQUAL "<none>")
      separate_arguments(extra_args UNIX_COMMAND "${extra}")
      list(APPEND args ${extra_args})
    endif()
    execute_process(
      COMMAND "${BENCH_DIR}/${bench}" ${args}
      OUTPUT_VARIABLE actual
      ERROR_VARIABLE stderr_text
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(SEND_ERROR "${bench} ${extra} failed with status ${status}:\n${stderr_text}")
      math(EXPR failures "${failures} + 1")
      continue()
    endif()
    # grep -v '^throughput:' — the one wall-clock line.
    string(REGEX REPLACE "\nthroughput:[^\n]*" "" actual "\n${actual}")
    string(SUBSTRING "${actual}" 1 -1 actual)
    list(JOIN args " " shown)
    set(actual_file "${OUT_DIR}/${name}.${index}.actual")
    file(WRITE "${actual_file}" "${actual}")
    if(actual STREQUAL expected)
      message(STATUS "ok: ${bench} ${shown}")
    else()
      message(SEND_ERROR "golden mismatch: ${bench} ${shown} differs from ${golden}")
      if(DIFF)
        execute_process(COMMAND "${DIFF}" -u "${OUT_DIR}/${name}.expected" "${actual_file}")
      endif()
      math(EXPR failures "${failures} + 1")
    endif()
    math(EXPR index "${index} + 1")
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} table(s) differ from their golden files")
endif()
