# Malformed numeric flags must exit 2 naming the flag, never run with the
# value's numeric prefix ("--n 64x" is not 64).
#   cmake -DGPOWERCTL=build/tools/gpowerctl -P tests/gpowerctl_numeric_flags.cmake
set(cases
  "dvfs|--n|64x"
  "dvfs|--slice|0.02s"
  "dvfs|--pstates|3q"
  "fleet|--devices|2abc"
  "fleet|--cap|300W")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 verb)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  execute_process(COMMAND "${GPOWERCTL}" ${verb} --emit-spec ${flag} ${value}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${verb} ${flag} ${value}: exit ${rc}, expected 2")
  endif()
  string(FIND "${err}" "error: ${flag} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${verb} ${flag} ${value}: stderr does not name "
            "${flag}:\n${err}")
  endif()
endforeach()
