# gpowerctl's flag table, end to end.  Each case must exit 2 naming the
# flag and an expected message:
#  - malformed numeric values ("--n 64x" is not 64);
#  - a flag the verb does not read ("does not apply to <verb>"), where the
#    protocol flags (--n/--seeds/--tiles/--kfrac) on the spec verbs also
#    name the spec field that holds the value;
#  - values outside the CLI-only ranges (--gpu, --interval, --count,
#    --stats-every).
# --emit-spec rides along on the verbs that read it, so a flag that
# wrongly parsed would print a spec instead of running a simulation.
#   cmake -DGPOWERCTL=build/tools/gpowerctl -P tests/gpowerctl_numeric_flags.cmake
cmake_minimum_required(VERSION 3.16)
set(emit_spec_verbs sweep dvfs fleet)
set(cases
  "dvfs|--n|64x|expects an integer"
  "dvfs|--slice|0.02s|expects a number"
  "dvfs|--pstates|3q|expects an integer"
  "fleet|--devices|2abc|expects an integer"
  "fleet|--cap|300W|expects a number"
  "run|--n|64|experiment.n"
  "run|--seeds|3|experiment.seeds"
  "validate|--tiles|6|experiment.sampling.tiles"
  "serve|--kfrac|0.25|experiment.sampling.k_fraction"
  "sweep|--pattern|sort_rows(40%)|does not apply to sweep"
  "validate|--dtype|int8|does not apply to validate"
  "run|--gpu|2|does not apply to run"
  "dvfs|--devices|9|does not apply to dvfs"
  "dvfs|--metrics-out|m.json|does not apply to dvfs"
  "discovery|--n|64|does not apply to discovery"
  "features|--workers|8|does not apply to features"
  "dvfs|--gpu|4|--gpu=4 out of range [0, 3]"
  "top|--interval|0|--interval=0 out of range [1, inf]"
  "top|--count|-1|--count=-1 out of range [0, inf]"
  "serve|--stats-every|-1|--stats-every=-1 out of range [0, inf]")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 verb)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  list(GET parts 3 expected)
  set(emit_spec "")
  if(verb IN_LIST emit_spec_verbs)
    set(emit_spec --emit-spec)
  endif()
  execute_process(COMMAND "${GPOWERCTL}" ${verb} ${emit_spec} ${flag} ${value}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${verb} ${flag} ${value}: exit ${rc}, expected 2")
  endif()
  # The error names the flag: "error: --n expects ..." or, for a range,
  # "error: --gpu=4 out of range ...".
  string(FIND "${err}" "error: ${flag} " at)
  if(at EQUAL -1)
    string(FIND "${err}" "error: ${flag}=" at)
  endif()
  string(FIND "${err}" "${expected}" at_expected)
  if(at EQUAL -1 OR at_expected EQUAL -1)
    message(FATAL_ERROR "${verb} ${flag} ${value}: stderr does not name "
            "${flag} and '${expected}':\n${err}")
  endif()
endforeach()

# A flag its verb reads still parses.
execute_process(COMMAND "${GPOWERCTL}" dvfs --emit-spec --slice 0.02
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" "\"slice_s\": 0.02" at)
if(NOT rc EQUAL 0 OR at EQUAL -1)
  message(FATAL_ERROR "dvfs --emit-spec --slice 0.02: exit ${rc}, expected "
          "0 and \"slice_s\": 0.02 in the spec:\n${out}${err}")
endif()
