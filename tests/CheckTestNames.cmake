# Fails when a gtest binary lists a test whose name is not the same from
# build to build. gtest prints a parameter that has no printer as its
# value: a pointer as an address (0x...), anything else as a byte dump
# ("N-byte object <...>"). A dump of plain values is stable, but a dump
# that holds a pointer changes with the load address. So each binary is
# listed twice, in two processes (address randomisation moves the load
# address between them), and the listings must agree and carry no 0x
# address. Run as
#   cmake -DBINARIES="path/a_tests|path/b_tests" -P CheckTestNames.cmake
string(REPLACE "|" ";" Binaries "${BINARIES}")
set(Checked 0)
set(Bad "")
foreach(B IN LISTS Binaries)
  foreach(Pass 1 2)
    execute_process(COMMAND "${B}" --gtest_list_tests
                    OUTPUT_VARIABLE Out${Pass} RESULT_VARIABLE Rc)
    if(NOT Rc EQUAL 0)
      message(FATAL_ERROR "${B} --gtest_list_tests exited with ${Rc}")
    endif()
  endforeach()
  math(EXPR Checked "${Checked} + 1")
  string(REGEX MATCH "[^\n]*0x[0-9a-fA-F]+[^\n]*" Hit "${Out1}")
  if(Hit)
    string(APPEND Bad "  ${B}:${Hit}\n")
  endif()
  if(NOT Out1 STREQUAL Out2)
    string(APPEND Bad "  ${B}: two listings differ\n")
  endif()
endforeach()
if(Checked EQUAL 0)
  message(FATAL_ERROR "no test binaries given")
endif()
if(Bad)
  message(FATAL_ERROR "unstable test names (give the parameter type a "
                      "gtest PrintTo):\n${Bad}")
endif()
message(STATUS "${Checked} test binaries list stable names")
