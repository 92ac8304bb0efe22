# Malformed numeric flags must exit 2 naming the flag, never run with the
# value's numeric prefix ("--n 64x" is not 64).  The protocol flags
# (--n/--seeds/--tiles/--kfrac) on the spec verbs must exit 2 too, naming
# the spec field that holds the value: a spec carries its own protocol, so
# the flag would otherwise be silently ignored.
#   cmake -DGPOWERCTL=build/tools/gpowerctl -P tests/gpowerctl_numeric_flags.cmake
set(cases
  "dvfs|--n|64x|expects an integer"
  "dvfs|--slice|0.02s|expects a number"
  "dvfs|--pstates|3q|expects an integer"
  "fleet|--devices|2abc|expects an integer"
  "fleet|--cap|300W|expects a number"
  "run|--n|64|experiment.n"
  "run|--seeds|3|experiment.seeds"
  "validate|--tiles|6|experiment.sampling.tiles"
  "serve|--kfrac|0.25|experiment.sampling.k_fraction")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 verb)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  list(GET parts 3 expected)
  execute_process(COMMAND "${GPOWERCTL}" ${verb} --emit-spec ${flag} ${value}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${verb} ${flag} ${value}: exit ${rc}, expected 2")
  endif()
  string(FIND "${err}" "error: ${flag} " at)
  string(FIND "${err}" "${expected}" at_expected)
  if(at EQUAL -1 OR at_expected EQUAL -1)
    message(FATAL_ERROR "${verb} ${flag} ${value}: stderr does not name "
            "${flag} and '${expected}':\n${err}")
  endif()
endforeach()
