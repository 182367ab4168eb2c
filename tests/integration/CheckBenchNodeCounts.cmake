# Solver-counter drift gate. Runs the three throughput benches once in a
# scratch directory and requires every sample's "nodes" to equal the
# committed bench/BENCH_throughput_<name>.json. Node counts are a pure
# function of the inputs (registration is serial), so any difference means
# a change moved a split or a budget charge. Wall time is not compared.
# Run via:  ctest -R bench_node_counts_match
cmake_minimum_required(VERSION 3.19) # string(JSON)
foreach(var FIG5A FIG5B TABLE1 BENCH_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# "name" -> "nodes" of every sample in \p json, as a list of name=nodes.
function(sample_nodes json out)
  string(JSON count LENGTH "${json}" samples)
  set(pairs "")
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${json}" samples ${i} name)
    string(JSON nodes GET "${json}" samples ${i} nodes)
    list(APPEND pairs "${name}=${nodes}")
  endforeach()
  set(${out} "${pairs}" PARENT_SCOPE)
endfunction()

foreach(bench fig5a fig5b table1)
  string(TOUPPER ${bench} var)
  execute_process(
    COMMAND ${${var}} --runs 1
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench}: exit ${rc}\n${out}\n${err}")
  endif()
  set(artifact BENCH_throughput_${bench}.json)
  file(READ ${WORK_DIR}/${artifact} fresh)
  file(READ ${BENCH_DIR}/${artifact} committed)
  sample_nodes("${fresh}" got)
  sample_nodes("${committed}" want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
      "${artifact}: solver node counts drifted\n"
      "  committed: ${want}\n  this build: ${got}")
  endif()
  message(STATUS "${artifact}: ${got}")
endforeach()
