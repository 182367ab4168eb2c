# Solver-counter drift gate. Runs the benches that report deterministic
# work counters once in a scratch directory and requires every counter to
# equal the committed bench/BENCH_*.json:
#   fig5a/fig5b/table1  "nodes" of every sample;
#   cache_economics     "cold_solver_nodes", "warm_verify_nodes";
#   lint_admission      "nodes_unseeded", "nodes_seeded",
#                       "admission_nodes_saved";
#   corpus_suite        every family's const/reject precision and recall,
#                       lint "queries_scored" and "sound", soak
#                       "mismatches" (bench/BENCH_corpus.json).
# Node counts are a pure function of the inputs (registration is serial),
# so any difference means a change moved a split or a budget charge; the
# corpus scores are a pure function of the analyzer and the generator
# seed. Wall time is not compared.
# Run via:  ctest -R bench_node_counts_match
cmake_minimum_required(VERSION 3.19) # string(JSON)
foreach(var FIG5A FIG5B TABLE1 CACHE_ECONOMICS LINT_ADMISSION CORPUS_SUITE
            BENCH_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# "<id>=<field>:<value>" for every element of the array \p array of
# \p json (identified by its \p id_key member) and every member named in
# \p fields, as a list.
function(counters json array id_key fields out)
  string(JSON count LENGTH "${json}" ${array})
  set(pairs "")
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON id GET "${json}" ${array} ${i} ${id_key})
    foreach(field IN LISTS fields)
      string(JSON value GET "${json}" ${array} ${i} ${field})
      list(APPEND pairs "${id}=${field}:${value}")
    endforeach()
  endforeach()
  set(${out} "${pairs}" PARENT_SCOPE)
endfunction()

# "<object>.<field>:<value>" for each member \p field of the object
# member \p object of \p json, appended to the list \p out.
function(object_fields json object fields out)
  set(pairs ${${out}})
  foreach(field IN LISTS fields)
    string(JSON value GET "${json}" ${object} ${field})
    list(APPEND pairs "${object}.${field}:${value}")
  endforeach()
  set(${out} "${pairs}" PARENT_SCOPE)
endfunction()

# Runs \p cmd (a list) in WORK_DIR; fails on a non-zero exit and returns
# the \p artifact it wrote in \p fresh and the committed copy in
# \p committed.
function(run_artifact cmd artifact fresh committed)
  execute_process(
    COMMAND ${cmd}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd}: exit ${rc}\n${out}\n${err}")
  endif()
  file(READ ${WORK_DIR}/${artifact} json)
  set(${fresh} "${json}" PARENT_SCOPE)
  file(READ ${BENCH_DIR}/${artifact} json)
  set(${committed} "${json}" PARENT_SCOPE)
endfunction()

function(require_equal artifact got want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
      "${artifact}: counters drifted\n"
      "  committed: ${want}\n  this build: ${got}")
  endif()
  message(STATUS "${artifact}: ${got}")
endfunction()

# Runs \p exe with \p runs in WORK_DIR and compares the counters of the
# artifact it writes against the committed copy.
function(check_artifact exe runs artifact array id_key fields)
  run_artifact("${exe};--runs;${runs}" ${artifact} fresh committed)
  counters("${fresh}" ${array} ${id_key} "${fields}" got)
  counters("${committed}" ${array} ${id_key} "${fields}" want)
  require_equal(${artifact} "${got}" "${want}")
endfunction()

foreach(bench fig5a fig5b table1)
  string(TOUPPER ${bench} var)
  check_artifact(${${var}} 1 BENCH_throughput_${bench}.json
                 samples name nodes)
endforeach()
# Three runs: cache_economics also exits 1 when its warm/cold latency bar
# fails, and a median of three keeps one scheduling hiccup from doing so.
check_artifact(${CACHE_ECONOMICS} 3 BENCH_cache.json samples problem
               "cold_solver_nodes;warm_verify_nodes")
check_artifact(${LINT_ADMISSION} 1 BENCH_static_analysis.json problems id
               "nodes_unseeded;nodes_seeded;admission_nodes_saved")
# corpus_suite has no --runs flag: one pass is the whole report.
run_artifact(${CORPUS_SUITE} BENCH_corpus.json fresh committed)
foreach(side fresh committed)
  set(scores "")
  counters("${${side}}" families family
           "const_precision;const_recall;reject_precision;reject_recall"
           scores)
  object_fields("${${side}}" lint "queries_scored;sound" scores)
  object_fields("${${side}}" soak "mismatches" scores)
  set(${side}_scores "${scores}")
endforeach()
require_equal(BENCH_corpus.json "${fresh_scores}" "${committed_scores}")
