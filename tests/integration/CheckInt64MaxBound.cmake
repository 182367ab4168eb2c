# Regression for a field ending at INT64_MAX. The region algebra cut
# intervals at Hi + 1, which overflowed there: unionCovers then claimed a
# box it did not cover, the powerset grower lost an include box, and the
# monitor refused a downgrade it answers with the bound one lower. The
# same module at both bounds must now give the same artifact shape, node
# counts and probe answer.
# Run via:  ctest -R cli_int64_max_field_bound
foreach(var ANOSY_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs the module with field bound \p hi; sets \p out to its output with
# the bound replaced by HI and the wall-clock figure dropped.
function(run_with_bound hi out)
  set(module ${WORK_DIR}/bound_${hi}.anosy)
  file(WRITE ${module}
    "secret S { a: int[0, ${hi}], b: int[0, 3] }\n"
    "query q = a <= 5 || b >= 2\n")
  execute_process(
    COMMAND ${ANOSY_CLI} ${module} --domain powerset --k 3 --probe-monitor
            --min-size 10
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bound ${hi}: exit ${rc}\n${stdout}\n${stderr}")
  endif()
  string(REPLACE "${hi}" "HI" stdout "${stdout}")
  string(REGEX REPLACE "[0-9.]+s synthesis" "synthesis" stdout "${stdout}")
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

run_with_bound(9223372036854775807 at_max)
run_with_bound(9223372036854775806 below_max)
if(NOT at_max STREQUAL below_max)
  message(FATAL_ERROR
    "INT64_MAX bound differs from INT64_MAX - 1:\n"
    "--- at INT64_MAX ---\n${at_max}\n--- at INT64_MAX - 1 ---\n${below_max}")
endif()
if(NOT at_max MATCHES "q -> false")
  message(FATAL_ERROR "probe not answered false:\n${at_max}")
endif()
if(NOT at_max MATCHES "A \\[AInt 6 HI, AInt 2 3\\]")
  message(FATAL_ERROR "second include box missing:\n${at_max}")
endif()
