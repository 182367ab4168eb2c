# Hostile module source must be refused with a diagnostic, never crash the
# process that parses it: deep nesting, long `!` runs, and def chains whose
# elaborated tree is exponentially deep or large. Runs both `anosy_cli`
# and `anosy_cli lint` on each module.
# Run via:  ctest -R cli_rejects_hostile_modules
if(NOT DEFINED ANOSY_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DANOSY_CLI=<anosy_cli> -DWORK_DIR=<scratch dir>")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

set(schema "secret S { a: int[0, 100], b: int[0, 100] }\nquery q = ")
string(REPEAT "(" 4000 open)
string(REPEAT ")" 4000 close)
file(WRITE ${WORK_DIR}/parens.anosy "${schema}${open}a > 0${close}\n")
string(REPEAT "!" 50000 bangs)
file(WRITE ${WORK_DIR}/bangs.anosy "${schema}${bangs}a > 0\n")

# d0(x) = <body>; di(x) = d(i-1)(d(i-1)(x)); query d(n-1)(a) > 0.
function(write_chain name body levels)
  set(src "secret S { a: int[0, 100], b: int[0, 100] }\n")
  string(APPEND src "def d0(x: int): int = ${body}\n")
  math(EXPR last "${levels} - 1")
  foreach(i RANGE 1 ${last})
    math(EXPR prev "${i} - 1")
    string(APPEND src "def d${i}(x: int): int = d${prev}(d${prev}(x))\n")
  endforeach()
  string(APPEND src "query q = d${last}(a) > 0\n")
  file(WRITE ${WORK_DIR}/${name}.anosy "${src}")
endfunction()
write_chain(deep_defs "abs(x - b)" 15)
write_chain(wide_defs "min(x, b) + min(b, x)" 6)

foreach(mod parens bangs deep_defs wide_defs)
  foreach(mode "" lint)
    execute_process(
      COMMAND ${ANOSY_CLI} ${mode} ${WORK_DIR}/${mod}.anosy
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR
        "anosy_cli ${mode} ${mod}.anosy: expected exit 1, got ${rc}: ${err}")
    endif()
    if(NOT err MATCHES "levels deep|nodes after def inlining")
      message(FATAL_ERROR
        "anosy_cli ${mode} ${mod}.anosy: no limit diagnostic: ${err}")
    endif()
  endforeach()
endforeach()
