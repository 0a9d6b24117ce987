/* Generated by HEALERS wrapgen — do not edit. */
#include <errno.h>
#include "healers_checks.h"

static __thread int in_flag;

static char* (*libc_asctime)(const struct tm* a1);

char* asctime(const struct tm* a1)
{
	char* ret;
	if (in_flag) {
		return (*libc_asctime)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY_NULL(a1, 44) && !healers_introspect((const void *)a1)) {
		healers_log_violation("asctime");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_asctime)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static double (*libc_atof)(const char* a1);

double atof(const char* a1)
{
	double ret;
	if (in_flag) {
		return (*libc_atof)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("atof");
		errno = EINVAL;
		ret = (double)-1;
		goto PostProcessing;
	}
	ret = (*libc_atof)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_atoi)(const char* a1);

int atoi(const char* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_atoi)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("atoi");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_atoi)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static long (*libc_atol)(const char* a1);

long atol(const char* a1)
{
	long ret;
	if (in_flag) {
		return (*libc_atol)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("atol");
		errno = EINVAL;
		ret = (long)-1;
		goto PostProcessing;
	}
	ret = (*libc_atol)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void (*libc_bzero)(void* a1, size_t a2);

void bzero(void* a1, size_t a2)
{
	if (in_flag) {
		(*libc_bzero)(a1, a2);
		return;
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a2) && !healers_introspect((const void *)a1)) {
		healers_log_violation("bzero");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!((long)a2 >= 0)) {
		healers_log_violation("bzero");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_bzero)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return;
}

static speed_t (*libc_cfgetispeed)(const struct termios* a1);

speed_t cfgetispeed(const struct termios* a1)
{
	speed_t ret;
	if (in_flag) {
		return (*libc_cfgetispeed)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 52) && !healers_introspect((const void *)a1)) {
		healers_log_violation("cfgetispeed");
		errno = EINVAL;
		ret = (speed_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_cfgetispeed)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static speed_t (*libc_cfgetospeed)(const struct termios* a1);

speed_t cfgetospeed(const struct termios* a1)
{
	speed_t ret;
	if (in_flag) {
		return (*libc_cfgetospeed)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 56) && !healers_introspect((const void *)a1)) {
		healers_log_violation("cfgetospeed");
		errno = EINVAL;
		ret = (speed_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_cfgetospeed)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_cfsetispeed)(struct termios* a1, speed_t a2);

int cfsetispeed(struct termios* a1, speed_t a2)
{
	int ret;
	if (in_flag) {
		return (*libc_cfsetispeed)(a1, a2);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, 52) && !healers_introspect((const void *)a1)) {
		healers_log_violation("cfsetispeed");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_cfsetispeed)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_cfsetospeed)(struct termios* a1, speed_t a2);

int cfsetospeed(struct termios* a1, speed_t a2)
{
	int ret;
	if (in_flag) {
		return (*libc_cfsetospeed)(a1, a2);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 56) && !healers_introspect((const void *)a1)) {
		healers_log_violation("cfsetospeed");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_cfsetospeed)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void (*libc_clearerr)(struct _IO_FILE* a1);

void clearerr(struct _IO_FILE* a1)
{
	if (in_flag) {
		(*libc_clearerr)(a1);
		return;
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("clearerr");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("clearerr");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_clearerr)(a1);
PostProcessing: ;
	in_flag = 0;
	return;
}

static int (*libc_closedir)(struct __dirstream* a1);

int closedir(struct __dirstream* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_closedir)(a1);
	}
	in_flag = 1;
	if (!check_OPEN_DIR(a1)) {
		healers_log_violation("closedir");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_valid_dir(a1)) {
		healers_log_violation("closedir");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_closedir)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_ctime)(const time_t* a1);

char* ctime(const time_t* a1)
{
	char* ret;
	if (in_flag) {
		return (*libc_ctime)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 8) && !healers_introspect((const void *)a1)) {
		healers_log_violation("ctime");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_ctime)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fclose)(struct _IO_FILE* a1);

int fclose(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_fclose)(a1);
	}
	in_flag = 1;
	if (!check_OPEN_FILE(a1)) {
		healers_log_violation("fclose");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("fclose");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fclose)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct _IO_FILE* (*libc_fdopen)(int a1, const char* a2);

struct _IO_FILE* fdopen(int a1, const char* a2)
{
	struct _IO_FILE* ret;
	if (in_flag) {
		return (*libc_fdopen)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a2)) {
		healers_log_violation("fdopen");
		errno = EINVAL;
		ret = (struct _IO_FILE*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_fdopen)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_feof)(struct _IO_FILE* a1);

int feof(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_feof)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("feof");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("feof");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_feof)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_ferror)(struct _IO_FILE* a1);

int ferror(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_ferror)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("ferror");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("ferror");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_ferror)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fflush)(struct _IO_FILE* a1);

int fflush(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_fflush)(a1);
	}
	in_flag = 1;
	if (!check_RW_ARRAY_NULL(a1, 152) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fflush");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("fflush");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fflush)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fgetc)(struct _IO_FILE* a1);

int fgetc(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_fgetc)(a1);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 152) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fgetc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("fgetc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fgetc)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_fgets)(char* a1, int a2, struct _IO_FILE* a3);

char* fgets(char* a1, int a2, struct _IO_FILE* a3)
{
	char* ret;
	if (in_flag) {
		return (*libc_fgets)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a2) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fgets");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!((long)a2 > 0)) {
		healers_log_violation("fgets");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_RW_ARRAY(a3, 152) && !healers_introspect((const void *)a3)) {
		healers_log_violation("fgets");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a3)) {
		healers_log_violation("fgets");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_fgets)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fileno)(struct _IO_FILE* a1);

int fileno(struct _IO_FILE* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_fileno)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fileno");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("fileno");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fileno)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct _IO_FILE* (*libc_fopen)(const char* a1, const char* a2);

struct _IO_FILE* fopen(const char* a1, const char* a2)
{
	struct _IO_FILE* ret;
	if (in_flag) {
		return (*libc_fopen)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a2)) {
		healers_log_violation("fopen");
		errno = EINVAL;
		ret = (struct _IO_FILE*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_fopen)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fputc)(int a1, struct _IO_FILE* a2);

int fputc(int a1, struct _IO_FILE* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_fputc)(a1, a2);
	}
	in_flag = 1;
	if (!check_OPEN_FILE(a2)) {
		healers_log_violation("fputc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a2)) {
		healers_log_violation("fputc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fputc)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fputs)(const char* a1, struct _IO_FILE* a2);

int fputs(const char* a1, struct _IO_FILE* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_fputs)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("fputs");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_RW_ARRAY(a2, 152) && !healers_introspect((const void *)a2)) {
		healers_log_violation("fputs");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a2)) {
		healers_log_violation("fputs");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fputs)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_fread)(void* a1, size_t a2, size_t a3, struct _IO_FILE* a4);

size_t fread(void* a1, size_t a2, size_t a3, struct _IO_FILE* a4)
{
	size_t ret;
	if (in_flag) {
		return (*libc_fread)(a1, a2, a3, a4);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a2 * (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fread");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!check_R_FILE(a4)) {
		healers_log_violation("fread");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a4)) {
		healers_log_violation("fread");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	ret = (*libc_fread)(a1, a2, a3, a4);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct _IO_FILE* (*libc_freopen)(const char* a1, const char* a2, struct _IO_FILE* a3);

struct _IO_FILE* freopen(const char* a1, const char* a2, struct _IO_FILE* a3)
{
	struct _IO_FILE* ret;
	if (in_flag) {
		return (*libc_freopen)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_CSTR(a2)) {
		healers_log_violation("freopen");
		errno = EINVAL;
		ret = (struct _IO_FILE*)NULL;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a3, 0) && !healers_introspect((const void *)a3)) {
		healers_log_violation("freopen");
		errno = EINVAL;
		ret = (struct _IO_FILE*)NULL;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a3)) {
		healers_log_violation("freopen");
		errno = EINVAL;
		ret = (struct _IO_FILE*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_freopen)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fseek)(struct _IO_FILE* a1, long a2, int a3);

int fseek(struct _IO_FILE* a1, long a2, int a3)
{
	int ret;
	if (in_flag) {
		return (*libc_fseek)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_OPEN_FILE(a1)) {
		healers_log_violation("fseek");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("fseek");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fseek)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_fstat)(int a1, struct stat* a2);

int fstat(int a1, struct stat* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_fstat)(a1, a2);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a2, 32) && !healers_introspect((const void *)a2)) {
		healers_log_violation("fstat");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_fstat)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static long (*libc_ftell)(struct _IO_FILE* a1);

long ftell(struct _IO_FILE* a1)
{
	long ret;
	if (in_flag) {
		return (*libc_ftell)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("ftell");
		errno = EINVAL;
		ret = (long)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("ftell");
		errno = EINVAL;
		ret = (long)-1;
		goto PostProcessing;
	}
	ret = (*libc_ftell)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_fwrite)(const void* a1, size_t a2, size_t a3, struct _IO_FILE* a4);

size_t fwrite(const void* a1, size_t a2, size_t a3, struct _IO_FILE* a4)
{
	size_t ret;
	if (in_flag) {
		return (*libc_fwrite)(a1, a2, a3, a4);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, (size_t)a2 * (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("fwrite");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!((long)a2 >= 0)) {
		healers_log_violation("fwrite");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("fwrite");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!check_W_FILE(a4)) {
		healers_log_violation("fwrite");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a4)) {
		healers_log_violation("fwrite");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	ret = (*libc_fwrite)(a1, a2, a3, a4);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_getcwd)(char* a1, size_t a2);

char* getcwd(char* a1, size_t a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_getcwd)(a1, a2);
	}
	in_flag = 1;
	if (!check_W_ARRAY_NULL(a1, 2) && !healers_introspect((const void *)a1)) {
		healers_log_violation("getcwd");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_getcwd)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_gets)(char* a1);

char* gets(char* a1)
{
	char* ret;
	if (in_flag) {
		return (*libc_gets)(a1);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, 24) && !healers_introspect((const void *)a1)) {
		healers_log_violation("gets");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_gets)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct tm* (*libc_gmtime)(const time_t* a1);

struct tm* gmtime(const time_t* a1)
{
	struct tm* ret;
	if (in_flag) {
		return (*libc_gmtime)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 8) && !healers_introspect((const void *)a1)) {
		healers_log_violation("gmtime");
		errno = EINVAL;
		ret = (struct tm*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_gmtime)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_index)(const char* a1, int a2);

char* index(const char* a1, int a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_index)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("index");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_index)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct tm* (*libc_localtime)(const time_t* a1);

struct tm* localtime(const time_t* a1)
{
	struct tm* ret;
	if (in_flag) {
		return (*libc_localtime)(a1);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 8) && !healers_introspect((const void *)a1)) {
		healers_log_violation("localtime");
		errno = EINVAL;
		ret = (struct tm*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_localtime)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_lstat)(const char* a1, struct stat* a2);

int lstat(const char* a1, struct stat* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_lstat)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("lstat");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_W_ARRAY(a2, 32) && !healers_introspect((const void *)a2)) {
		healers_log_violation("lstat");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_lstat)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void* (*libc_memchr)(const void* a1, int a2, size_t a3);

void* memchr(const void* a1, int a2, size_t a3)
{
	void* ret;
	if (in_flag) {
		return (*libc_memchr)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("memchr");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("memchr");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_memchr)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_memcmp)(const void* a1, const void* a2, size_t a3);

int memcmp(const void* a1, const void* a2, size_t a3)
{
	int ret;
	if (in_flag) {
		return (*libc_memcmp)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("memcmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, (size_t)a3) && !healers_introspect((const void *)a2)) {
		healers_log_violation("memcmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("memcmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_memcmp)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void* (*libc_memcpy)(void* a1, const void* a2, size_t a3);

void* memcpy(void* a1, const void* a2, size_t a3)
{
	void* ret;
	if (in_flag) {
		return (*libc_memcpy)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("memcpy");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, (size_t)a3) && !healers_introspect((const void *)a2)) {
		healers_log_violation("memcpy");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("memcpy");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_memcpy)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void* (*libc_memmove)(void* a1, const void* a2, size_t a3);

void* memmove(void* a1, const void* a2, size_t a3)
{
	void* ret;
	if (in_flag) {
		return (*libc_memmove)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("memmove");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, (size_t)a3) && !healers_introspect((const void *)a2)) {
		healers_log_violation("memmove");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("memmove");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_memmove)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void* (*libc_memset)(void* a1, int a2, size_t a3);

void* memset(void* a1, int a2, size_t a3)
{
	void* ret;
	if (in_flag) {
		return (*libc_memset)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("memset");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("memset");
		errno = EINVAL;
		ret = (void*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_memset)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_mkstemp)(char* a1);

int mkstemp(char* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_mkstemp)(a1);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 1) && !healers_introspect((const void *)a1)) {
		healers_log_violation("mkstemp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_mkstemp)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static time_t (*libc_mktime)(struct tm* a1);

time_t mktime(struct tm* a1)
{
	time_t ret;
	if (in_flag) {
		return (*libc_mktime)(a1);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 44) && !healers_introspect((const void *)a1)) {
		healers_log_violation("mktime");
		errno = EINVAL;
		ret = (time_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_mktime)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static struct __dirstream* (*libc_opendir)(const char* a1);

struct __dirstream* opendir(const char* a1)
{
	struct __dirstream* ret;
	if (in_flag) {
		return (*libc_opendir)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("opendir");
		errno = EINVAL;
		ret = (struct __dirstream*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_opendir)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void (*libc_perror)(const char* a1);

void perror(const char* a1)
{
	if (in_flag) {
		(*libc_perror)(a1);
		return;
	}
	in_flag = 1;
	if (!check_CSTR_NULL(a1)) {
		healers_log_violation("perror");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_perror)(a1);
PostProcessing: ;
	in_flag = 0;
	return;
}

static int (*libc_puts)(const char* a1);

int puts(const char* a1)
{
	int ret;
	if (in_flag) {
		return (*libc_puts)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("puts");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_puts)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void (*libc_qsort)(void* a1, size_t a2, size_t a3, int (*)() a4);

void qsort(void* a1, size_t a2, size_t a3, int (*)() a4)
{
	if (in_flag) {
		(*libc_qsort)(a1, a2, a3, a4);
		return;
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, (size_t)a2 * (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("qsort");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!check_VALID_FUNC(a4)) {
		healers_log_violation("qsort");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_qsort)(a1, a2, a3, a4);
PostProcessing: ;
	in_flag = 0;
	return;
}

static struct dirent* (*libc_readdir)(struct __dirstream* a1);

struct dirent* readdir(struct __dirstream* a1)
{
	struct dirent* ret;
	if (in_flag) {
		return (*libc_readdir)(a1);
	}
	in_flag = 1;
	if (!check_OPEN_DIR(a1)) {
		healers_log_violation("readdir");
		errno = EINVAL;
		ret = (struct dirent*)NULL;
		goto PostProcessing;
	}
	if (!healers_valid_dir(a1)) {
		healers_log_violation("readdir");
		errno = EINVAL;
		ret = (struct dirent*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_readdir)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static void (*libc_rewind)(struct _IO_FILE* a1);

void rewind(struct _IO_FILE* a1)
{
	if (in_flag) {
		(*libc_rewind)(a1);
		return;
	}
	in_flag = 1;
	if (!check_OPEN_FILE(a1)) {
		healers_log_violation("rewind");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("rewind");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_rewind)(a1);
PostProcessing: ;
	in_flag = 0;
	return;
}

static void (*libc_rewinddir)(struct __dirstream* a1);

void rewinddir(struct __dirstream* a1)
{
	if (in_flag) {
		(*libc_rewinddir)(a1);
		return;
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 64) && !healers_introspect((const void *)a1)) {
		healers_log_violation("rewinddir");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!healers_valid_dir(a1)) {
		healers_log_violation("rewinddir");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_rewinddir)(a1);
PostProcessing: ;
	in_flag = 0;
	return;
}

static void (*libc_seekdir)(struct __dirstream* a1, long a2);

void seekdir(struct __dirstream* a1, long a2)
{
	if (in_flag) {
		(*libc_seekdir)(a1, a2);
		return;
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, 64) && !healers_introspect((const void *)a1)) {
		healers_log_violation("seekdir");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!healers_valid_dir(a1)) {
		healers_log_violation("seekdir");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_seekdir)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return;
}

static void (*libc_setbuf)(struct _IO_FILE* a1, char* a2);

void setbuf(struct _IO_FILE* a1, char* a2)
{
	if (in_flag) {
		(*libc_setbuf)(a1, a2);
		return;
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("setbuf");
		errno = EINVAL;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("setbuf");
		errno = EINVAL;
		goto PostProcessing;
	}
	(*libc_setbuf)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return;
}

static int (*libc_setvbuf)(struct _IO_FILE* a1, char* a2, int a3, size_t a4);

int setvbuf(struct _IO_FILE* a1, char* a2, int a3, size_t a4)
{
	int ret;
	if (in_flag) {
		return (*libc_setvbuf)(a1, a2, a3, a4);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("setvbuf");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a1)) {
		healers_log_violation("setvbuf");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_setvbuf)(a1, a2, a3, a4);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_stat)(const char* a1, struct stat* a2);

int stat(const char* a1, struct stat* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_stat)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("stat");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_W_ARRAY(a2, 32) && !healers_introspect((const void *)a2)) {
		healers_log_violation("stat");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_stat)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strcat)(char* a1, const char* a2);

char* strcat(char* a1, const char* a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strcat)(a1, a2);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, healers_strlen(a2) + 1) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strcat");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strcat");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strcat)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strchr)(const char* a1, int a2);

char* strchr(const char* a1, int a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strchr)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strchr");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strchr)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_strcmp)(const char* a1, const char* a2);

int strcmp(const char* a1, const char* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_strcmp)(a1, a2);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strcmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, 0) && !healers_introspect((const void *)a2)) {
		healers_log_violation("strcmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_strcmp)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_strcoll)(const char* a1, const char* a2);

int strcoll(const char* a1, const char* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_strcoll)(a1, a2);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strcoll");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, 0) && !healers_introspect((const void *)a2)) {
		healers_log_violation("strcoll");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_strcoll)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strcpy)(char* a1, const char* a2);

char* strcpy(char* a1, const char* a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strcpy)(a1, a2);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, healers_strlen(a2) + 1) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strcpy");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strcpy");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strcpy)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_strcspn)(const char* a1, const char* a2);

size_t strcspn(const char* a1, const char* a2)
{
	size_t ret;
	if (in_flag) {
		return (*libc_strcspn)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strcspn");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strcspn");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_strcspn)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strdup)(const char* a1);

char* strdup(const char* a1)
{
	char* ret;
	if (in_flag) {
		return (*libc_strdup)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strdup");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strdup)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_strftime)(char* a1, size_t a2, const char* a3, const struct tm* a4);

size_t strftime(char* a1, size_t a2, const char* a3, const struct tm* a4)
{
	size_t ret;
	if (in_flag) {
		return (*libc_strftime)(a1, a2, a3, a4);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, healers_min(healers_strlen(a3) + 1, (size_t)a2)) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strftime");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!check_CSTR(a3)) {
		healers_log_violation("strftime");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a4, 44) && !healers_introspect((const void *)a4)) {
		healers_log_violation("strftime");
		errno = EINVAL;
		ret = (size_t)0;
		goto PostProcessing;
	}
	ret = (*libc_strftime)(a1, a2, a3, a4);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_strlen)(const char* a1);

size_t strlen(const char* a1)
{
	size_t ret;
	if (in_flag) {
		return (*libc_strlen)(a1);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strlen");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_strlen)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strncat)(char* a1, const char* a2, size_t a3);

char* strncat(char* a1, const char* a2, size_t a3)
{
	char* ret;
	if (in_flag) {
		return (*libc_strncat)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a1, healers_min(healers_strlen(a2), (size_t)a3) + 1) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strncat");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_R_BOUNDED(a2, (size_t)a3)) {
		healers_log_violation("strncat");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strncat)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_strncmp)(const char* a1, const char* a2, size_t a3);

int strncmp(const char* a1, const char* a2, size_t a3)
{
	int ret;
	if (in_flag) {
		return (*libc_strncmp)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strncmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!check_R_ARRAY(a2, 0) && !healers_introspect((const void *)a2)) {
		healers_log_violation("strncmp");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_strncmp)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strncpy)(char* a1, const char* a2, size_t a3);

char* strncpy(char* a1, const char* a2, size_t a3)
{
	char* ret;
	if (in_flag) {
		return (*libc_strncpy)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, (size_t)a3) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strncpy");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_R_BOUNDED(a2, (size_t)a3)) {
		healers_log_violation("strncpy");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!((long)a3 >= 0)) {
		healers_log_violation("strncpy");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strncpy)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strpbrk)(const char* a1, const char* a2);

char* strpbrk(const char* a1, const char* a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strpbrk)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strpbrk");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strpbrk");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strpbrk)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strrchr)(const char* a1, int a2);

char* strrchr(const char* a1, int a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strrchr)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strrchr");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strrchr)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_strspn)(const char* a1, const char* a2);

size_t strspn(const char* a1, const char* a2)
{
	size_t ret;
	if (in_flag) {
		return (*libc_strspn)(a1, a2);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a1, 0) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strspn");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strspn");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_strspn)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strstr)(const char* a1, const char* a2);

char* strstr(const char* a1, const char* a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strstr)(a1, a2);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strstr");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strstr");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strstr)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static char* (*libc_strtok)(char* a1, const char* a2);

char* strtok(char* a1, const char* a2)
{
	char* ret;
	if (in_flag) {
		return (*libc_strtok)(a1, a2);
	}
	in_flag = 1;
	if (!check_R_ARRAY_NULL(a1, 1) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strtok");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strtok");
		errno = EINVAL;
		ret = (char*)NULL;
		goto PostProcessing;
	}
	ret = (*libc_strtok)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static long (*libc_strtol)(const char* a1, char** a2, int a3);

long strtol(const char* a1, char** a2, int a3)
{
	long ret;
	if (in_flag) {
		return (*libc_strtol)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strtol");
		errno = EINVAL;
		ret = (long)0;
		goto PostProcessing;
	}
	if (!check_W_ARRAY_NULL(a2, 8) && !healers_introspect((const void *)a2)) {
		healers_log_violation("strtol");
		errno = EINVAL;
		ret = (long)0;
		goto PostProcessing;
	}
	ret = (*libc_strtol)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static unsigned long (*libc_strtoul)(const char* a1, char** a2, int a3);

unsigned long strtoul(const char* a1, char** a2, int a3)
{
	unsigned long ret;
	if (in_flag) {
		return (*libc_strtoul)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_CSTR(a1)) {
		healers_log_violation("strtoul");
		errno = EINVAL;
		ret = (unsigned long)0;
		goto PostProcessing;
	}
	if (!check_W_ARRAY_NULL(a2, 8) && !healers_introspect((const void *)a2)) {
		healers_log_violation("strtoul");
		errno = EINVAL;
		ret = (unsigned long)0;
		goto PostProcessing;
	}
	ret = (*libc_strtoul)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static size_t (*libc_strxfrm)(char* a1, const char* a2, size_t a3);

size_t strxfrm(char* a1, const char* a2, size_t a3)
{
	size_t ret;
	if (in_flag) {
		return (*libc_strxfrm)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a1, healers_min(healers_strlen(a2) + 1, (size_t)a3)) && !healers_introspect((const void *)a1)) {
		healers_log_violation("strxfrm");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	if (!check_CSTR(a2)) {
		healers_log_violation("strxfrm");
		errno = EINVAL;
		ret = (size_t)-1;
		goto PostProcessing;
	}
	ret = (*libc_strxfrm)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_tcgetattr)(int a1, struct termios* a2);

int tcgetattr(int a1, struct termios* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_tcgetattr)(a1, a2);
	}
	in_flag = 1;
	if (!check_W_ARRAY(a2, 56) && !healers_introspect((const void *)a2)) {
		healers_log_violation("tcgetattr");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_tcgetattr)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_tcsetattr)(int a1, int a2, const struct termios* a3);

int tcsetattr(int a1, int a2, const struct termios* a3)
{
	int ret;
	if (in_flag) {
		return (*libc_tcsetattr)(a1, a2, a3);
	}
	in_flag = 1;
	if (!check_R_ARRAY(a3, 56) && !healers_introspect((const void *)a3)) {
		healers_log_violation("tcsetattr");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_tcsetattr)(a1, a2, a3);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static long (*libc_telldir)(struct __dirstream* a1);

long telldir(struct __dirstream* a1)
{
	long ret;
	if (in_flag) {
		return (*libc_telldir)(a1);
	}
	in_flag = 1;
	if (!check_OPEN_DIR(a1)) {
		healers_log_violation("telldir");
		errno = EINVAL;
		ret = (long)-1;
		goto PostProcessing;
	}
	if (!healers_valid_dir(a1)) {
		healers_log_violation("telldir");
		errno = EINVAL;
		ret = (long)-1;
		goto PostProcessing;
	}
	ret = (*libc_telldir)(a1);
PostProcessing: ;
	in_flag = 0;
	return ret;
}

static int (*libc_ungetc)(int a1, struct _IO_FILE* a2);

int ungetc(int a1, struct _IO_FILE* a2)
{
	int ret;
	if (in_flag) {
		return (*libc_ungetc)(a1, a2);
	}
	in_flag = 1;
	if (!check_RW_ARRAY(a2, 152) && !healers_introspect((const void *)a2)) {
		healers_log_violation("ungetc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	if (!healers_file_integrity(a2)) {
		healers_log_violation("ungetc");
		errno = EINVAL;
		ret = (int)-1;
		goto PostProcessing;
	}
	ret = (*libc_ungetc)(a1, a2);
PostProcessing: ;
	in_flag = 0;
	return ret;
}
