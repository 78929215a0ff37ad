# ycsbt_client applies every -P file before -db/-p/-threads/-target, so a
# flag wins over a properties file wherever it appears on the command line.
#
#   cmake -DCLIENT=<ycsbt_client> -DWORK_DIR=<dir> -P client_flag_precedence.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(props "${WORK_DIR}/occ.properties")
file(WRITE "${props}" "db=occ+memkv\nthreads=3\nrecordcount=20\n")

execute_process(
  COMMAND "${CLIENT}" -s -load -db txn+memkv -P "${props}" -p recordcount=10
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ycsbt_client exited ${rc}:\n${out}\n${err}")
endif()
foreach(expected "db=txn+memkv" "recordcount=10" "threads=3")
  string(FIND "${out}" "\n${expected}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "expected ${expected} in effect:\n${out}")
  endif()
endforeach()
