# On x86-64 the gpupower library is built with -mpopcnt, so std::popcount
# is one POPCNT instruction.  Fails when the archive still calls libgcc's
# software popcount (the flag was dropped, or a TU escaped it).
#   cmake -DNM=nm -DLIB=build/libgpupower.a -DPROCESSOR=x86_64 \
#         -P tests/no_libgcc_popcount.cmake
if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  message(STATUS "${PROCESSOR} is not x86-64: no POPCNT requirement")
  return()
endif()
execute_process(COMMAND "${NM}" -u "${LIB}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE undefined ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -u ${LIB}: exit ${rc}\n${err}")
endif()
foreach(symbol __popcountdi2 __popcountsi2)
  string(REGEX MATCH "[ \t]${symbol}(\n|$)" hit "${undefined}")
  if(hit)
    message(FATAL_ERROR "${LIB} calls libgcc's ${symbol}: build it with "
            "-mpopcnt (see CMakeLists.txt)")
  endif()
endforeach()
