# Lint output gate. Runs `anosy_cli lint --json` once per module, with the
# default relational tier (auto) and with --relational=on, over
# examples/modules, tests/corpus and tests/corpus/curated, and requires
# the concatenated output (module path, exit status, JSON report) to equal
# tests/integration/golden/lint_<tier>.txt byte for byte. Exit status 1 is
# an expected verdict (error-severity diagnostics); anything other than 0
# or 1 is a crash or a usage failure and fails the gate.
# Run via:  ctest -R lint_json_matches_golden
# Regenerate the golden files (after a deliberate output change) with
#   cmake -DANOSY_CLI=<anosy_cli> -DSOURCE_DIR=<repo> -DUPDATE=ON \
#         -P tests/integration/CheckLintGolden.cmake
foreach(var ANOSY_CLI SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(GLOB modules RELATIVE ${SOURCE_DIR}
  ${SOURCE_DIR}/examples/modules/*.anosy
  ${SOURCE_DIR}/tests/corpus/*.anosy
  ${SOURCE_DIR}/tests/corpus/curated/*.anosy)
list(SORT modules)
list(LENGTH modules count)
if(count EQUAL 0)
  message(FATAL_ERROR "no modules found under ${SOURCE_DIR}")
endif()

set(golden_dir ${SOURCE_DIR}/tests/integration/golden)
foreach(tier auto on)
  set(report "")
  foreach(mod IN LISTS modules)
    execute_process(
      COMMAND ${ANOSY_CLI} lint --json --relational=${tier} ${mod}
      WORKING_DIRECTORY ${SOURCE_DIR}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT (rc EQUAL 0 OR rc EQUAL 1))
      message(FATAL_ERROR
        "anosy_cli lint --relational=${tier} ${mod}: exit ${rc}\n${err}")
    endif()
    string(APPEND report "## ${mod} exit ${rc}\n${out}")
  endforeach()
  set(golden ${golden_dir}/lint_${tier}.txt)
  if(UPDATE)
    file(WRITE ${golden} "${report}")
    message(STATUS "wrote ${golden}")
    continue()
  endif()
  file(READ ${golden} want)
  if(NOT report STREQUAL want)
    message(FATAL_ERROR
      "lint --relational=${tier} output differs from ${golden}\n"
      "this build:\n${report}")
  endif()
  message(STATUS "lint --relational=${tier}: ${count} modules match")
endforeach()
