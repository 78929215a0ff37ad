# A load-only invocation reports the load it did: the record count, a
# nonzero wall time and a nonzero insert rate.
#
#   cmake -DCLIENT=<ycsbt_client> -P client_load_report.cmake
execute_process(
  COMMAND "${CLIENT}" -load -db memkv -p recordcount=1000
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ycsbt_client exited ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "\n\\[LOAD RECORDS\\], 1000\n")
  message(FATAL_ERROR "expected [LOAD RECORDS], 1000:\n${out}")
endif()
foreach(line "RunTime\\(ms\\)" "Throughput\\(ops/sec\\)")
  if(NOT out MATCHES "\n\\[OVERALL\\], ${line}, ([0-9.e+]+)\n")
    message(FATAL_ERROR "no [OVERALL] ${line} line:\n${out}")
  endif()
  if(CMAKE_MATCH_1 MATCHES "^0(\\.0*)?$")
    message(FATAL_ERROR "[OVERALL] ${line} is 0 for a 1000-record load:\n${out}")
  endif()
endforeach()
